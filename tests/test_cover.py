"""Torus coverings by cube translates: masks, greedy, random, exact search."""

import math

import pytest
from cover_oracles import counting_lower_bound, naive_minimum_cover
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.cover import (
    CoverInstance,
    CoverSolution,
    _box_mask,
    _coverage_table,
    _coverers_of,
    _incumbent,
    cn_table,
    cover_mask,
    exact_cover,
    greedy_cover,
    is_cover,
    mask_cells,
    random_cover_within_expectation,
    random_translates_cover,
    redundant_translate,
    slice_lower_bound,
    torus_points,
)
from maxram.errors import DomainError, PreconditionError
from maxram.rational import ceil_div


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
                points = torus_points(inst)
                windows = product_window_masks(inst, points)
                for p, window in zip(points, windows):
                    assert _box_mask(inst, p, d) == product_cover_mask(inst, p)
                    corner = tuple(c - (d - 1) for c in p)
                    assert _box_mask(inst, corner, 2 * d - 1) == window, (inst, p)


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


# -- randomized -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, s",
    [(1, 1), (2, 3), (3, 7), (4, 14)],
)
def test_random_phase_size_fixture(n, s):
    """floor(n * (3/2)^n * ln 2), computed with certified log bounds."""
    sol = random_translates_cover(CoverInstance(3, 2, n), seed=0)
    assert sol.s_random == s
    assert math.floor(n * (3 / 2) ** n * math.log(2)) == s


def test_random_cover_covers_and_counts_leftovers():
    inst = CoverInstance(3, 2, 2)
    sol = random_translates_cover(inst, seed=4)
    assert is_cover(inst, sol.translates)
    assert sol.size == len(sol.translates)
    assert sol.leftover is not None and sol.leftover >= 0
    assert sol.size <= sol.s_random + sol.leftover


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
    drawn = sol.translates[: sol.size - sol.leftover]
    covered = 0
    for t in drawn:
        covered |= cover_mask(inst, t)
    assert sol.translates[len(drawn):] == scan_uncovered(inst, covered)


def test_leftover_fixtures_do_have_leftovers():
    assert [random_translates_cover(CoverInstance(5, 2, 2), s).leftover
            for s in range(3)] == [9, 6, 7]
    assert random_translates_cover(CoverInstance(191, 63, 2), 2).leftover == 12
    assert random_translates_cover(CoverInstance(191, 63, 2), 0).leftover == 0


@given(st.sampled_from(small_instances()), st.data())
@settings(max_examples=60, deadline=None)
def test_mask_cells_lists_the_set_bits_in_index_order(inst, data):
    mask = data.draw(st.integers(0, (1 << inst.point_count) - 1))
    cells = torus_points(inst)
    assert mask_cells(mask, cells) == [
        p for idx, p in enumerate(cells) if (mask >> idx) & 1
    ]


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
    assert sol.s_random == 0
    assert (sol.translates, sol.size, sol.optimal, sol.lower_bound) == (
        greedy.translates,
        greedy.size,
        greedy.optimal,
        greedy.lower_bound,
    )


def test_expectation_retry_meets_the_allowance():
    inst = CoverInstance(3, 2, 2)
    sol, attempts, met = random_cover_within_expectation(inst, seed=0)
    assert met and attempts >= 1
    # allowance: ceil((3/2)^2) = 3 extra translates over the random phase
    assert sol.size <= sol.s_random + 3
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
    assert 0 < moves < 10**7
    assert is_cover(inst, [translates[i] for i in start])


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
@example((CoverInstance(3, 2, 3), 10**5))  # 2d-1 >= m: every window is the torus
@example((CoverInstance(5, 2, 2), 10**5))  # 4d-3 >= m > 2d-1: near boxes wrap
@example((CoverInstance(7, 2, 2), 10**5))  # neither wraps
@example((CoverInstance(9, 2, 2), 1))  # budget cut within the local search
@example((CoverInstance(5, 3, 2), 10**5))  # greedy meets the slice bound
@settings(max_examples=100, deadline=None)
def test_exact_matches_the_rescan_oracle_field_by_field(instance):
    inst, budget = instance
    got = exact_cover(inst, budget=budget)
    assert got == rescanned_exact_cover(inst, budget)
    assert is_cover(inst, got.translates)


def test_exact_cover_single_translate_instance():
    sol = exact_cover(CoverInstance(2, 2, 3))
    assert sol.size == 1 and sol.optimal and sol.translates == [(0, 0, 0)]


# -- the c(n) table ------------------------------------------------------------


def test_cn_table_small_values():
    """c(3,2,n) for n <= 6, each row proved: the slice bound is met."""
    rows = cn_table(6)
    assert [(r.n, r.lower, r.upper, r.exact) for r in rows] == [
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
    assert not last.exact
    assert last.lower == 8  # the slice bound
    assert last.upper >= last.lower


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
