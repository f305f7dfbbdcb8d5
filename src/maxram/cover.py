"""Covering the discrete torus Z_m^n by translates of the cube {0..d-1}^n.

Coverings are exact set-cover instances over bitmask coverage tables.
Point (c_0, ..., c_{n-1}) is bit sum c_i * m^(n-1-i), and every box the
module needs (cubes, the coverers of a point, the packing bound's
neighbourhoods) comes from the one builder _box_mask. Three
constructions are provided: branch-and-bound minimum covers with a node
budget, the lexicographic greedy, and the randomized construction
(floor(n * ln d * (m/d)^n) uniform translates plus one patch per point
left uncovered) whose expected leftover count is below (m/d)^n.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, PreconditionError
from .rational import ceil_div, floor_times_log

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class CoverInstance:
    m: int
    d: int
    n: int

    def __post_init__(self):
        if not (1 <= self.d <= self.m):
            raise PreconditionError("need 1 <= d <= m")
        if self.n < 1:
            raise PreconditionError("need n >= 1")

    @property
    def point_count(self) -> int:
        return self.m**self.n


@dataclass
class CoverSolution:
    translates: list[IntVec]
    size: int
    optimal: bool
    lower_bound: int
    s_random: int | None = None
    leftover: int | None = None
    budget_exhausted: bool = False


def counting_lower_bound(inst: CoverInstance) -> int:
    """ceil(m^n / d^n): each translate covers exactly d^n points."""
    return ceil_div(inst.point_count, inst.d**inst.n)


def torus_points(inst: CoverInstance) -> list[IntVec]:
    return list(itertools.product(range(inst.m), repeat=inst.n))


def mask_cells(mask: int, cells: list[IntVec]) -> list[IntVec]:
    """The cells whose bits are set in mask, in index order; cells is
    torus_points(inst). Only the set bits are visited."""
    bits = format(mask, "b")[::-1]
    found = []
    index = bits.find("1")
    while index >= 0:
        found.append(cells[index])
        index = bits.find("1", index + 1)
    return found


def _box_mask(inst: CoverInstance, corner: IntVec, side: int) -> int:
    """Bitmask of the points corner + {0..side-1}^n (mod m), row-major.

    Built from the last axis outward: the box on axes i.. is the OR of
    copies of the box on axes i+1.., one shifted to each of its side
    coordinates on axis i. A side of m or more is the whole axis.
    """
    m = inst.m
    side = min(side, m)
    mask, stride = 1, 1
    for c in reversed(corner):
        row = 0
        for t in range(side):
            row |= mask << ((c + t) % m * stride)
        mask, stride = row, stride * m
    return mask


def cover_mask(inst: CoverInstance, translate: IntVec) -> int:
    """Bitmask of the points covered by translate + {0..d-1}^n (mod m)."""
    return _box_mask(inst, translate, inst.d)


def _coverage_table(inst: CoverInstance) -> tuple[list[IntVec], list[int]]:
    translates = torus_points(inst)
    return translates, [cover_mask(inst, v) for v in translates]


def is_cover(inst: CoverInstance, translates) -> bool:
    full = (1 << inst.point_count) - 1
    acc = 0
    for v in translates:
        acc |= cover_mask(inst, tuple(v))
        if acc == full:
            return True
    return acc == full


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Largest-new-coverage greedy; ties broken by lexicographic translate."""
    return _greedy(inst, *_coverage_table(inst))


def _greedy(
    inst: CoverInstance, translates: list[IntVec], masks: list[int]
) -> CoverSolution:
    full = (1 << inst.point_count) - 1
    uncovered = full
    chosen: list[IntVec] = []
    while uncovered:
        best_i, best_gain = -1, -1
        for i, mask in enumerate(masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(translates[best_i])
        uncovered &= ~masks[best_i]
    lb = counting_lower_bound(inst)
    return CoverSolution(
        translates=chosen,
        size=len(chosen),
        optimal=len(chosen) == lb,
        lower_bound=lb,
    )


def random_translates_cover(inst: CoverInstance, seed: int = 0) -> CoverSolution:
    """floor(n * ln d * (m/d)^n) uniform random translates, then one patch
    translate placed at every point still uncovered.

    At d = 1 no translate is drawn (ln 1 = 0), and patching every point in
    index order gives exactly the greedy cover.
    """
    m, d, n = inst.m, inst.d, inst.n
    ratio = Fraction(m, d) ** n
    s = floor_times_log(n * ratio, d)
    rng = random.Random(seed)
    drawn = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(s)]
    chosen: list[IntVec] = []
    seen = set()
    covered = 0
    for v in drawn:
        if v not in seen:
            seen.add(v)
            chosen.append(v)
            covered |= cover_mask(inst, v)
    full = (1 << inst.point_count) - 1
    leftovers = mask_cells(full & ~covered, torus_points(inst))
    for point in leftovers:
        chosen.append(point)
        covered |= cover_mask(inst, point)
    assert covered == full
    lb = counting_lower_bound(inst)
    return CoverSolution(
        translates=chosen,
        size=len(chosen),
        optimal=len(chosen) == lb,
        lower_bound=lb,
        s_random=s,
        leftover=len(leftovers),
    )


_MAX_RETRIES = 1000


def random_cover_within_expectation(
    inst: CoverInstance, seed: int = 0
) -> tuple[CoverSolution, int, bool]:
    """Retry seeds until total size <= s + ceil((m/d)^n), the integer form
    of the expectation guarantee. Returns (best solution, attempts, met)."""
    ratio = Fraction(inst.m, inst.d) ** inst.n
    allowance = ceil_div(ratio.numerator, ratio.denominator)
    best: CoverSolution | None = None
    for attempt in range(_MAX_RETRIES):
        sol = random_translates_cover(inst, seed + attempt)
        if best is None or sol.size < best.size:
            best = sol
        if sol.size <= (sol.s_random or 0) + allowance:
            return sol, attempt + 1, True
    assert best is not None
    return best, _MAX_RETRIES, False


def exact_cover(inst: CoverInstance, budget: int = DEFAULT_BUDGET) -> CoverSolution:
    """Minimum cover by branch and bound.

    The first translate is pinned to the origin (the torus is transitive,
    so some minimum cover contains it). Every point p has exactly d^n
    coverers, the translates p - {0..d-1}^n, so branching takes the
    lowest-index uncovered point and tries its coverers by decreasing
    fresh coverage, ties by index. Pruning uses the better of the
    counting bound and a greedy packing: uncovered points, taken in index
    order, whose windows p + {-(d-1)..d-1}^n are pairwise disjoint, that
    is, each pair more than 2(d-1) apart cyclically on some axis. No
    translate covers two of them. The greedy cover seeds the incumbent;
    if the node budget runs out the incumbent is returned with
    optimal=False.
    """
    d, n = inst.d, inst.n
    translates, masks = _coverage_table(inst)
    full = (1 << inst.point_count) - 1
    dpow = d**n

    greedy = _greedy(inst, translates, masks)
    best_size = greedy.size
    best_sol = [tuple(v) for v in greedy.translates]
    nodes = 0
    exhausted = False

    # near[p]: the points whose windows meet p's window, those within
    # cyclic distance 2(d-1) of p on every axis; kept per point. Translate
    # i sits at point i, so translates[p] is p's coordinates.
    reach = 2 * (d - 1)
    near: dict[int, int] = {}

    def packing_bound(uncovered: int) -> int:
        """Take the lowest uncovered point that no taken point is near,
        until none is left; O(1) big-int steps per point taken."""
        count = 0
        probe = uncovered
        while probe:
            count += 1
            p = (probe & -probe).bit_length() - 1
            if p not in near:
                corner = tuple(c - reach for c in translates[p])
                near[p] = _box_mask(inst, corner, 2 * reach + 1)
            probe &= ~near[p]
        return count

    coverers: dict[int, list[int]] = {}

    def coverers_of(point: int) -> list[int]:
        """The translates point - {0..d-1}^n, by index; kept per point."""
        if point not in coverers:
            corner = tuple(c - (d - 1) for c in translates[point])
            box = _box_mask(inst, corner, d)
            out = coverers[point] = []
            while box:
                low = box & -box
                out.append(low.bit_length() - 1)
                box ^= low
        return coverers[point]

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
        slack = best_size - len(chosen)
        if (
            ceil_div(uncovered.bit_count(), dpow) >= slack
            or packing_bound(uncovered) >= slack
        ):
            return
        target = (uncovered & -uncovered).bit_length() - 1
        order = sorted(
            coverers_of(target),
            key=lambda ti: (-(masks[ti] & uncovered).bit_count(), ti),
        )
        for ti in order:
            chosen.append(ti)
            search(uncovered & ~masks[ti], chosen)
            chosen.pop()
            if exhausted:
                return

    search(full & ~masks[0], [0])

    counting = counting_lower_bound(inst)
    if exhausted:
        return CoverSolution(
            translates=best_sol,
            size=best_size,
            optimal=False,
            lower_bound=counting,
            budget_exhausted=True,
        )
    return CoverSolution(
        translates=best_sol,
        size=best_size,
        optimal=True,
        lower_bound=best_size,
    )


@dataclass(frozen=True)
class CnRow:
    n: int
    lower: int
    upper: int
    exact: bool


def cn_table(n_max: int, budget: int = DEFAULT_BUDGET, seed: int = 0) -> list[CnRow]:
    """Bounds on the minimum number of {0,1}^n translates covering Z_3^n.

    Each row reports the counting lower bound and the best constructive
    upper bound: five randomized covers and the exact search's incumbent,
    which starts from the greedy cover. When the exact search finishes
    within budget the two collapse to the true value.
    """
    if n_max < 1:
        raise PreconditionError("need n_max >= 1")
    rows = []
    for n in range(1, n_max + 1):
        inst = CoverInstance(3, 2, n)
        lower = counting_lower_bound(inst)
        upper = min(random_translates_cover(inst, seed + a).size for a in range(5))
        sol = exact_cover(inst, budget=budget)
        if sol.optimal:
            rows.append(CnRow(n, sol.size, sol.size, True))
        else:
            rows.append(CnRow(n, lower, min(upper, sol.size), False))
    return rows
