"""Torus coverings by cube translates: masks, greedy, random, exact search."""

import math
import random
import sys

import pytest
from cover_oracles import (
    counting_lower_bound,
    draw_count,
    find_mask_cells,
    full_scan_greedy,
    listing_incumbent,
    naive_minimum_cover,
    random_draws,
    set_box_mask,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.bits import ceil_div, mask_cells
from maxram.cover import (
    CoverInstance,
    CoverSolution,
    _coverage_table,
    _coverers_of,
    _incumbent,
    cn_table,
    cover_mask,
    exact_cover,
    greedy_cover,
    is_cover,
    random_cover_within_expectation,
    random_translates_cover,
    redundant_translate,
    slice_lower_bound,
    torus_points,
)
from maxram.errors import DomainError, PreconditionError


# -- oracles -------------------------------------------------------------------


def product_index_mask(inst: CoverInstance, coords_per_axis) -> int:
    """Bitmask of the product of per-axis coordinate lists, row-major."""
    indices = [0]
    for coords in coords_per_axis:
        indices = [idx * inst.m + c for idx in indices for c in coords]
    buf = bytearray((inst.point_count + 7) // 8)
    for idx in indices:
        buf[idx >> 3] |= 1 << (idx & 7)
    return int.from_bytes(bytes(buf), "little")


def product_cover_mask(inst: CoverInstance, translate) -> int:
    """The cube translate + {0..d-1}^n, built index by index."""
    m, d = inst.m, inst.d
    return product_index_mask(
        inst, [[(c + t) % m for t in range(d)] for c in translate]
    )


def product_window_masks(inst: CoverInstance, points) -> list[int]:
    """window[p] = bitmask of points co-coverable with p by one translate."""
    m, d = inst.m, inst.d
    if 2 * d - 1 >= m:
        # The window wraps all the way around every axis.
        return [(1 << len(points)) - 1] * len(points)
    return [
        product_index_mask(
            inst,
            [sorted({(c + off) % m for off in range(-(d - 1), d)}) for c in p],
        )
        for p in points
    ]


def rescan_exact_cover(
    inst: CoverInstance, budget: int, lower: int, start: list
) -> CoverSolution:
    """The branch and bound before the box-mask rewrite, kept as the oracle.

    It finds each point's coverers by walking every coverage mask, scans
    all uncovered points for the one with the fewest coverers, and builds
    the packing bound by testing every uncovered point's window against
    the union of the windows taken so far. It starts from the incumbent
    start and stops once the incumbent meets lower.
    """
    points = torus_points(inst)
    translates = points
    masks = [product_cover_mask(inst, v) for v in translates]
    npts = inst.point_count
    full = (1 << npts) - 1
    coverers: list[list[int]] = [[] for _ in range(npts)]
    for ti, mask in enumerate(masks):
        probe = mask
        while probe:
            low = probe & -probe
            coverers[low.bit_length() - 1].append(ti)
            probe ^= low
    windows = product_window_masks(inst, points)
    dpow = inst.d**inst.n

    best_size = len(start)
    best_sol = list(start)
    nodes = 0
    exhausted = False

    def packing_bound(uncovered: int) -> int:
        count = 0
        taken = 0
        probe = uncovered
        while probe:
            low = probe & -probe
            pi = low.bit_length() - 1
            if not (windows[pi] & taken):
                count += 1
                taken |= windows[pi]
            probe ^= low
        return count

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal nodes, exhausted, best_size, best_sol
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sol = [translates[i] for i in chosen]
            return
        lb = max(
            ceil_div(uncovered.bit_count(), dpow), packing_bound(uncovered)
        )
        if len(chosen) + lb >= best_size:
            return
        target, target_count = -1, None
        probe = uncovered
        while probe:
            low = probe & -probe
            pi = low.bit_length() - 1
            cnt = len(coverers[pi])
            if target_count is None or cnt < target_count:
                target, target_count = pi, cnt
            probe ^= low
        order = sorted(
            coverers[target],
            key=lambda ti: (-(masks[ti] & uncovered).bit_count(), ti),
        )
        for ti in order:
            chosen.append(ti)
            search(uncovered & ~masks[ti], chosen)
            chosen.pop()
            if exhausted or best_size == lower:
                return

    if best_size > lower:
        search(full & ~masks[0], [0])

    if exhausted:
        return CoverSolution(
            translates=best_sol,
            size=best_size,
            optimal=False,
            lower_bound=lower,
            budget_exhausted=True,
        )
    return CoverSolution(
        translates=best_sol,
        size=best_size,
        optimal=True,
        lower_bound=best_size,
    )


def rescanned_exact_cover(inst: CoverInstance, budget: int) -> CoverSolution:
    """exact_cover's answer with its branch and bound replaced by the
    rescan oracle: the same slice bound, incumbent and remaining budget."""
    translates, masks = _coverage_table(inst)
    lower = slice_lower_bound(inst)
    coverers_of = _coverers_of(inst, translates)
    start, moves = _incumbent(inst, masks, coverers_of, lower, budget)
    return rescan_exact_cover(
        inst, budget - moves, lower, [translates[i] for i in start]
    )


def small_instances():
    out = []
    for m in range(1, 4):
        for d in range(1, m + 1):
            for n in (1, 2):
                out.append(CoverInstance(m, d, n))
    return out


# -- instances and masks -------------------------------------------------


def test_instance_validation():
    assert CoverInstance(3, 2, 2).point_count == 9
    with pytest.raises(PreconditionError):
        CoverInstance(2, 3, 1)
    with pytest.raises(PreconditionError):
        CoverInstance(2, 0, 1)
    with pytest.raises(PreconditionError):
        CoverInstance(2, 1, 0)


def test_counting_lower_bound_fixtures():
    assert counting_lower_bound(CoverInstance(3, 2, 2)) == 3
    assert counting_lower_bound(CoverInstance(3, 2, 1)) == 2
    assert counting_lower_bound(CoverInstance(4, 2, 2)) == 4
    assert counting_lower_bound(CoverInstance(2, 2, 5)) == 1


def test_slice_lower_bound_fixtures():
    assert [slice_lower_bound(CoverInstance(3, 2, n)) for n in range(1, 8)] == [
        2, 3, 5, 8, 12, 18, 27
    ]
    assert slice_lower_bound(CoverInstance(9, 2, 2)) == 23  # counting: 21
    assert slice_lower_bound(CoverInstance(45, 15, 2)) == 9
    assert slice_lower_bound(CoverInstance(5, 1, 3)) == 125
    assert slice_lower_bound(CoverInstance(4, 4, 6)) == 1


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(1, 4))
    )
)
@settings(max_examples=200, deadline=None)
def test_slice_bound_is_never_below_counting(mdn):
    m, d, n = mdn
    inst = CoverInstance(m, d, n)
    assert slice_lower_bound(inst) >= counting_lower_bound(inst)


def test_the_one_point_torus_is_refused_past_the_dimension_cap():
    assert CoverInstance(1, 1, 24).point_count == 1
    with pytest.raises(DomainError, match="the one-point torus needs n < 25"):
        CoverInstance(1, 1, 25)
    with pytest.raises(DomainError, match="the one-point torus"):
        CoverInstance(1, 1, 10**8)


def test_torus_points_are_lexicographic():
    assert torus_points(CoverInstance(2, 1, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_cover_mask_wraps_around():
    inst = CoverInstance(3, 2, 1)
    assert cover_mask(inst, (2,)) == 0b101  # covers cells 2 and 0
    assert cover_mask(inst, (0,)) == 0b011


def test_cover_mask_two_dimensional():
    inst = CoverInstance(3, 2, 2)
    # translate at the origin covers row-major cells 0, 1, 3, 4
    assert cover_mask(inst, (0, 0)) == (1 | 2 | 8 | 16)


@given(st.sampled_from(small_instances()), st.data())
@settings(max_examples=60, deadline=None)
def test_cover_mask_bit_count_is_d_to_the_n(inst, data):
    t = tuple(
        data.draw(st.integers(0, inst.m - 1)) for _ in range(inst.n)
    )
    assert cover_mask(inst, t).bit_count() == inst.d**inst.n


def test_box_mask_matches_the_product_index_builders():
    for m in range(1, 8):
        for d in range(1, m + 1):
            for n in (1, 2, 3):
                if m**n > 150:
                    continue
                inst = CoverInstance(m, d, n)
                for p in torus_points(inst):
                    assert cover_mask(inst, p) == product_cover_mask(inst, p)


@st.composite
def tori_and_boxes(draw):
    """A torus of at most 4 axes and 1,296 points, m = 1 among them, with
    any d from 1 to m, and cube corners from -2m to 2m."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    inst = CoverInstance(m, draw(st.integers(1, m)), n)
    corners = draw(
        st.lists(st.tuples(*[st.integers(-2 * m, 2 * m)] * n), min_size=1, max_size=4)
    )
    return inst, corners


@given(tori_and_boxes())
@settings(max_examples=200, deadline=None)
@example((CoverInstance(1, 1, 4), [(0, -1, 2, 0), (0, 0, 0, 0)]))
@example((CoverInstance(3, 3, 2), [(2, -5), (1, 1)]))
def test_box_masks_match_the_set_oracle(case):
    inst, corners = case
    for corner in corners:
        assert cover_mask(inst, corner) == set_box_mask(inst, corner, inst.d)


@st.composite
def table_tori(draw):
    """A torus of 1 to 4 axes and at most 2,000 points, with any d from 1
    to m; most of the m drawn do not divide 64."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, math.floor(2000 ** (1 / n) + 1e-9)))
    return CoverInstance(m, draw(st.integers(1, m)), n)


@given(table_tori())
@settings(max_examples=100, deadline=None)
@example(CoverInstance(1, 1, 1))  # one point
@example(CoverInstance(40, 7, 1))  # one axis
@example(CoverInstance(6, 1, 4))  # d = 1: every mask one point
@example(CoverInstance(5, 5, 3))  # d = m: every mask the whole torus
@example(CoverInstance(9, 2, 3))  # 729 points, m odd
@example(CoverInstance(45, 15, 2))  # the bench's torus
def test_coverage_table_matches_cover_mask(inst):
    """The table turns each slab once per offset and shares the ANDs of
    each prefix; it holds cover_mask's box for every translate, in
    row-major order."""
    translates, masks = _coverage_table(inst)
    assert translates == torus_points(inst)
    assert masks == [cover_mask(inst, v) for v in translates]


def test_is_cover_fixtures():
    inst = CoverInstance(3, 2, 1)
    assert not is_cover(inst, [(0,)])
    assert is_cover(inst, [(0,), (2,)])
    assert is_cover(inst, [(0,), (1,)])
    assert is_cover(inst, [(0,), (1,), (2,)])  # early-exit path


def test_redundant_translate_fixtures():
    inst = CoverInstance(3, 2, 1)
    assert redundant_translate(inst, [(0,), (2,)]) is None
    assert redundant_translate(inst, [(0,), (1,), (2,)]) == 0  # 1 and 2 cover
    assert redundant_translate(inst, [(0,), (2,), (2,)]) == 1  # listed twice
    assert redundant_translate(CoverInstance(3, 2, 4), greedy_cover(
        CoverInstance(3, 2, 4)).translates) is None


@given(st.sampled_from(small_instances()), st.data())
@settings(max_examples=60, deadline=None)
def test_redundant_translate_matches_dropping_each_translate(inst, data):
    translates = data.draw(st.lists(
        st.tuples(*[st.integers(0, inst.m - 1)] * inst.n), min_size=1, max_size=6
    ))
    if not is_cover(inst, translates):
        translates += torus_points(inst)
    expected = next(
        (i for i in range(len(translates))
         if is_cover(inst, translates[:i] + translates[i + 1:])),
        None,
    )
    assert redundant_translate(inst, translates) == expected


# -- greedy ---------------------------------------------------------------


def test_greedy_picks_the_diagonal_for_the_nine_cell_torus():
    sol = greedy_cover(CoverInstance(3, 2, 2))
    assert sol.translates == [(0, 0), (1, 1), (2, 2)]
    assert sol.size == 3
    assert sol.optimal and sol.lower_bound == 3


def test_greedy_always_covers():
    for inst in small_instances():
        sol = greedy_cover(inst)
        assert is_cover(inst, sol.translates)
        assert sol.size == len(sol.translates)


# Every torus with m^n <= 4,096 in 1 to 4 axes, and every d: n = 1 up to
# m = 40, n = 2 up to 24, n = 3 up to 12, n = 4 up to 8.
GREEDY_SWEEP = [
    (m, d, n)
    for n, top in ((1, 40), (2, 24), (3, 12), (4, 8))
    for m in range(1, top + 1)
    for d in range(1, m + 1)
]


@given(st.sampled_from(GREEDY_SWEEP))
@example((45, 15, 2))  # the bench's torus: each round stops early
@example((8, 2, 4))  # the last rounds cover fewer than d^n points
@example((7, 7, 3))  # one translate covers everything
@example((6, 1, 4))  # d = 1: each scan starts at the first uncovered point
@settings(max_examples=80, deadline=None)
def test_greedy_stops_early_at_the_full_scan_choice(mdn):
    """Each round's scan stops at the first translate whose fresh
    coverage reaches min(d^n, uncovered points); the cover equals the one
    a scan of every translate takes, lowest index first among the best."""
    inst = CoverInstance(*mdn)
    assert greedy_cover(inst).translates == full_scan_greedy(inst)


# -- randomized -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, s",
    [(1, 1), (2, 3), (3, 7), (4, 14)],
)
def test_random_phase_size_fixture(n, s):
    """floor(n * (3/2)^n * ln 2) draws, then the patches."""
    inst = CoverInstance(3, 2, n)
    assert draw_count(inst) == s
    assert math.floor(n * (3 / 2) ** n * math.log(2)) == s
    drawn = random_draws(inst, 0)
    assert random_translates_cover(inst, seed=0).translates[: len(drawn)] == drawn


def test_random_cover_covers_and_counts_leftovers():
    inst = CoverInstance(3, 2, 2)
    sol = random_translates_cover(inst, seed=4)
    assert is_cover(inst, sol.translates)
    assert sol.size == len(sol.translates)
    drawn = random_draws(inst, 4)
    assert sol.translates[: len(drawn)] == drawn
    assert len(drawn) <= draw_count(inst)


def scan_uncovered(inst: CoverInstance, covered: int) -> list:
    """The full leftover scan: test the bit of every torus point."""
    return [p for idx, p in enumerate(torus_points(inst)) if not (covered >> idx) & 1]


@given(
    st.sampled_from(
        [CoverInstance(3, 2, 2), CoverInstance(5, 2, 2), CoverInstance(7, 3, 2),
         CoverInstance(4, 2, 3), CoverInstance(191, 63, 2)]
    ),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
@example(CoverInstance(191, 63, 2), 2)  # 12 leftovers among 36,481 points
def test_leftover_patches_match_the_full_scan(inst, seed):
    """The patch translates are exactly the points the drawn translates
    miss, in index order, as a scan of every point finds them."""
    sol = random_translates_cover(inst, seed)
    drawn = random_draws(inst, seed)
    covered = 0
    for t in drawn:
        covered |= cover_mask(inst, t)
    assert sol.translates == drawn + scan_uncovered(inst, covered)


def leftover(inst: CoverInstance, seed: int) -> int:
    """The number of patch translates of the seed's random cover."""
    return random_translates_cover(inst, seed).size - len(random_draws(inst, seed))


def test_leftover_fixtures_do_have_leftovers():
    assert [leftover(CoverInstance(5, 2, 2), s) for s in range(3)] == [9, 6, 7]
    assert leftover(CoverInstance(191, 63, 2), 2) == 12
    assert leftover(CoverInstance(191, 63, 2), 0) == 0


@given(st.sampled_from(small_instances()), st.data())
@settings(max_examples=60, deadline=None)
def test_mask_cells_lists_the_set_bits_in_index_order(inst, data):
    mask = data.draw(st.integers(0, (1 << inst.point_count) - 1))
    cells = torus_points(inst)
    assert mask_cells(mask, cells) == [
        p for idx, p in enumerate(cells) if (mask >> idx) & 1
    ]


def _mask_of(bits) -> int:
    return sum(1 << i for i in bits)


@given(
    st.one_of(
        st.integers(0, 2**700 - 1),
        st.sets(st.integers(0, 699), max_size=120).map(_mask_of),
    ),
    st.booleans(),
)
@example(0, True)
@example(1 << 699, False)
@example(_mask_of({31, 0}), True)  # 2 set bits in 32: walked by compress
@example(1 << 31, False)  # 1 set bit in 32: walked bit by bit
@example(_mask_of({32, 0}), True)  # 2 set bits in 33: walked bit by bit
@settings(max_examples=100, deadline=None)
def test_mask_cells_matches_the_find_loop(mask, indices):
    """Masks over 700 cells, dense or of at most 120 set bits, so on both
    sides of the sparse walk (under one set bit in 16 up to the highest),
    the empty mask and the last cell alone among them, listed as cells or
    as indices."""
    cells = range(700) if indices else [(i, -i) for i in range(700)]
    assert mask_cells(mask, cells) == find_mask_cells(mask, cells)


def test_random_cover_is_deterministic_per_seed():
    inst = CoverInstance(3, 2, 3)
    assert (
        random_translates_cover(inst, seed=7).translates
        == random_translates_cover(inst, seed=7).translates
    )


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
@example(2, 2, 0)
def test_randomized_cover_falls_back_to_greedy_when_d_is_one(m, n, seed):
    # ln 1 = 0, so nothing is drawn and every point is patched in index
    # order, the order in which the greedy takes them.
    inst = CoverInstance(m, 1, n)
    sol, greedy = random_translates_cover(inst, seed), greedy_cover(inst)
    assert draw_count(inst) == 0
    assert (sol.translates, sol.size, sol.optimal, sol.lower_bound) == (
        greedy.translates,
        greedy.size,
        greedy.optimal,
        greedy.lower_bound,
    )


def test_expectation_retry_meets_the_allowance():
    inst = CoverInstance(3, 2, 2)
    sol, met = random_cover_within_expectation(inst, seed=0)
    assert met
    # allowance: ceil((3/2)^2) = 3 extra translates over the random phase
    assert sol.size <= draw_count(inst) + 3
    assert is_cover(inst, sol.translates)


# -- exact search -----------------------------------------------------------


def test_exact_cover_nine_cell_fixture():
    sol = exact_cover(CoverInstance(3, 2, 2))
    assert sol.size == 3 and sol.optimal
    assert sol.lower_bound == 3
    assert sol.translates[0] == (0, 0)  # origin is pinned
    assert is_cover(CoverInstance(3, 2, 2), sol.translates)


def test_exact_cover_agrees_with_naive_enumeration():
    for inst in small_instances():
        exact = exact_cover(inst)
        naive = naive_minimum_cover(inst)
        assert exact.optimal and naive.optimal
        assert exact.size == naive.size, (inst, exact.size, naive.size)


def test_exact_cover_sandwich_on_a_wider_sweep():
    for m in range(2, 5):
        for d in range(1, m + 1):
            inst = CoverInstance(m, d, 2)
            exact = exact_cover(inst)
            assert exact.optimal
            assert counting_lower_bound(inst) <= exact.size <= greedy_cover(inst).size
            assert is_cover(inst, exact.translates)


def test_exact_cover_budget_exhaustion_keeps_the_incumbent():
    inst = CoverInstance(9, 2, 2)
    sol = exact_cover(inst, budget=10)
    assert sol.budget_exhausted and not sol.optimal
    assert sol.lower_bound == 23  # the slice bound, here also the proven value
    assert is_cover(inst, sol.translates)
    full = exact_cover(inst)
    assert full.optimal and full.size == 23
    assert full.size <= sol.size


# The moves the seeded local search spends to meet the slice bound: its
# draws are part of its answer, so any change to them shows here.
LOCAL_SEARCH_MOVES = {
    (9, 2, 2): 1099, (3, 2, 4): 146, (3, 2, 5): 177, (3, 2, 6): 3, (11, 2, 2): 1394,
}


@pytest.mark.parametrize(
    "m, d, n, greedy, value",
    [(9, 2, 2, 25, 23), (3, 2, 4, 9, 8), (3, 2, 5, 16, 12), (3, 2, 6, 21, 18),
     (11, 2, 2, 36, 33)],
)
def test_local_search_meets_the_slice_bound(m, d, n, greedy, value):
    """The greedy cover is above the slice bound; the seeded local search
    brings the incumbent down to it, so no branch is needed."""
    inst = CoverInstance(m, d, n)
    lower = slice_lower_bound(inst)
    translates, masks = _coverage_table(inst)
    start, moves = _incumbent(inst, masks, _coverers_of(inst, translates), lower, 10**7)
    assert greedy_cover(inst).size == greedy
    assert len(start) == lower == value
    assert moves == LOCAL_SEARCH_MOVES[m, d, n]
    assert is_cover(inst, [translates[i] for i in start])


@given(
    st.integers(0, 2**64),
    st.lists(st.integers(1, sys.maxsize), min_size=1, max_size=20),
)
@example(0, [1])
@example(5, [2**32 - 1, 2**32, 2**32 + 1, 3, sys.maxsize])  # k past one 32-bit word
@settings(max_examples=200, deadline=None)
def test_randrange_draws_what_choice_over_a_range_draws(seed, ks):
    """rng.randrange(k) and rng.choice(range(k)) both draw _randbelow(k),
    so two generators of one seed stay in step over any run of k >= 1:
    _incumbent draws an uncovered point's rank where a listing of the
    points would be chosen from."""
    ranks, chosen = random.Random(seed), random.Random(seed)
    for k in ks:
        assert ranks.randrange(k) == chosen.choice(range(k))


@st.composite
def budgeted_instances(draw):
    """(m, d, n) with m^n <= 100 and a node budget from 1 to 10^5."""
    # Most instances with a real search are planes.
    n = draw(st.sampled_from((2, 2, 2, 3, 3, 4, 1, 5, 6)))
    m = draw(st.sampled_from(range(2, math.floor(100 ** (1 / n) + 1e-9) + 1)))
    d = draw(st.sampled_from(range(1, m + 1)))
    budget = draw(st.one_of(st.integers(1, 300), st.integers(1, 10**5)))
    return CoverInstance(m, d, n), budget


@given(budgeted_instances())
@example((CoverInstance(3, 2, 3), 10**5))  # three axes: one tabu move meets the bound
@example((CoverInstance(5, 2, 2), 10**5))  # the tabu search meets the slice bound
@example((CoverInstance(7, 2, 2), 10**5))  # the same, after 650 moves
@example((CoverInstance(9, 2, 2), 1))  # budget cut within the local search
@example((CoverInstance(5, 3, 2), 10**5))  # greedy meets the slice bound
@example((CoverInstance(16, 3, 2), 10**5))  # the tree runs out of budget in the plane
@example((CoverInstance(7, 2, 3), 10**5))  # the same in three axes
@settings(max_examples=100, deadline=None)
def test_exact_matches_the_rescan_oracle_field_by_field(instance):
    inst, budget = instance
    got = exact_cover(inst, budget=budget)
    assert got == rescanned_exact_cover(inst, budget)
    assert is_cover(inst, got.translates)


@given(budgeted_instances())
@example((CoverInstance(9, 2, 2), 20_000))  # meets the slice bound after 1,099 moves
@example((CoverInstance(7, 4, 3), 20_000))  # 64 coverers per point, all 20,000 moves
@example((CoverInstance(33, 2, 2), 20_000))  # about 290 held, all 20,000 moves
@settings(max_examples=100, deadline=None)
def test_incumbent_matches_the_listing_oracle(instance):
    """The tabu search that never lists the uncovered points or the
    scores makes the listing oracle's draws: the same cover, translate
    order included, after the same number of moves."""
    inst, budget = instance
    translates, masks = _coverage_table(inst)
    lower = slice_lower_bound(inst)
    got = _incumbent(inst, masks, _coverers_of(inst, translates), lower, budget)
    want = listing_incumbent(inst, masks, _coverers_of(inst, translates), lower, budget)
    assert got == want


def test_the_branch_and_bound_improves_on_the_tabu_incumbent():
    """On (33, 2, 2) the tabu search ends at 289 translates. Within 10^5
    nodes the branch and bound goes on to 288, still above the slice
    bound 281, so the cover is not proved."""
    inst = CoverInstance(33, 2, 2)
    lower = slice_lower_bound(inst)
    translates, masks = _coverage_table(inst)
    start, _ = _incumbent(inst, masks, _coverers_of(inst, translates), lower, 10**5)
    sol = exact_cover(inst, budget=10**5)
    assert (len(start), sol.size, sol.lower_bound) == (289, 288, 281)
    assert sol.budget_exhausted and not sol.optimal
    assert is_cover(inst, sol.translates)


def test_exact_cover_single_translate_instance():
    sol = exact_cover(CoverInstance(2, 2, 3))
    assert sol.size == 1 and sol.optimal and sol.translates == [(0, 0, 0)]


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_exact_cover_runs_past_the_recursion_limit():
    """The branch and bound keeps its own stack: on (21, 2, 2) it goes 117
    levels deep, and a recursion limit 60 frames above the caller's
    changes nothing."""
    inst = CoverInstance(21, 2, 2)
    want = exact_cover(inst, budget=30000)
    assert (want.size, want.lower_bound) == (120, 116)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        got = exact_cover(inst, budget=30000)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


# -- the c(n) table ------------------------------------------------------------


def test_cn_table_small_values():
    """c(3,2,n) for n <= 6, each row proved: the slice bound is met."""
    rows = cn_table(6)
    assert [(n, s.lower_bound, s.size, s.optimal) for n, s in enumerate(rows, 1)] == [
        (1, 2, 2, True),
        (2, 3, 3, True),
        (3, 5, 5, True),
        (4, 8, 8, True),
        (5, 12, 12, True),
        (6, 18, 18, True),
    ]


def test_cn_table_reports_open_rows_when_budgeted_out():
    rows = cn_table(4, budget=10)
    last = rows[-1]
    assert not last.optimal
    assert last.lower_bound == 8  # the slice bound
    assert last.size >= last.lower_bound


@given(st.sampled_from(small_instances()), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_every_construction_covers(inst, seed):
    for sol in (
        greedy_cover(inst),
        random_translates_cover(inst, seed),
        exact_cover(inst),
    ):
        assert is_cover(inst, sol.translates)
        assert slice_lower_bound(inst) <= sol.lower_bound <= sol.size
