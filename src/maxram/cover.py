"""Covering the discrete torus Z_m^n by translates of the cube {0..d-1}^n.

Coverings are exact set-cover instances over bitmask coverage tables.
Point (c_0, ..., c_{n-1}) is bit sum c_i * m^(n-1-i), and every box the
module needs (cubes, the coverers of a point, the packing bound's
neighbourhoods) comes from the one builder _box_mask. Three
constructions are provided: the lexicographic greedy, the randomized
construction (floor(n * ln d * (m/d)^n) uniform translates plus one
patch per point left uncovered) whose expected leftover count is below
(m/d)^n, and minimum covers solved from both sides. Below, the slice
bound; above, a seeded tabu search from the greedy cover, then a branch
and bound with a node budget. The solve ends as soon as the two meet.
Each construction reports the slice bound as its lower bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, DomainError, PreconditionError
from .rational import ceil_div, floor_times_log

IntVec = tuple[int, ...]

# Each cover check ORs masks of m^n bits, so a torus with more points is
# refused before any mask, or m^n itself, is built. The cap admits the
# 6,967,871 points of the (191, 63, 3) random cover.
MAX_TORUS_POINTS = 2**24


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
        # n is bounded before m^n is computed; at m >= 2 the bound alone
        # means more points than the cap, and at m = 1 it bounds the
        # length of the one translate and of the slice bound's chain.
        if self.n >= MAX_TORUS_POINTS.bit_length() or self.point_count > MAX_TORUS_POINTS:
            if self.m == 1:
                limit = MAX_TORUS_POINTS.bit_length()
                raise DomainError(f"the one-point torus needs n < {limit}")
            raise DomainError(f"the torus has more than {MAX_TORUS_POINTS} points")

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


def slice_lower_bound(inst: CoverInstance) -> int:
    """b_n, where b_1 = ceil(m/d) and b_k = ceil(m * b_(k-1) / d).

    Cut Z_m^k into the m slices x_0 = c. Each slice is a copy of
    Z_m^(k-1), so a cover meets it in at least b_(k-1) translates, and
    each translate meets exactly d slices. By induction b_k is never
    below the counting bound ceil(m^k / d^k).
    """
    m, d = inst.m, inst.d
    bound = ceil_div(m, d)
    for _ in range(inst.n - 1):
        bound = ceil_div(m * bound, d)
    return bound


def _bounded(inst: CoverInstance, translates: list[IntVec], **extra) -> CoverSolution:
    """A cover with the slice bound as its lower bound; optimal when it meets it."""
    lower = slice_lower_bound(inst)
    return CoverSolution(
        translates=translates,
        size=len(translates),
        optimal=len(translates) == lower,
        lower_bound=lower,
        **extra,
    )


def torus_points(inst: CoverInstance) -> list[IntVec]:
    return list(itertools.product(range(inst.m), repeat=inst.n))


def mask_cells(mask: int, cells):
    """The cells whose bits are set in mask, in index order; cells is
    torus_points(inst), or range(point_count) for the indices. Only the
    set bits are visited."""
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


def _add_mask(planes: list[int], mask: int) -> None:
    """Add one to the cover count of every point of mask. The counts are
    bit-sliced: bit p of planes[j] is bit j of point p's count."""
    carry = mask
    for j, plane in enumerate(planes):
        planes[j] = plane ^ carry
        carry &= plane
        if not carry:
            return
    planes.append(carry)


def _remove_mask(planes: list[int], mask: int) -> None:
    """Subtract one from the cover count of every point of mask; each of
    those counts must be positive."""
    borrow = mask
    for j, plane in enumerate(planes):
        planes[j] = plane ^ borrow
        borrow &= ~plane
        if not borrow:
            return


def _covered_once(planes: list[int]) -> int:
    """The points whose cover count is exactly one."""
    more = 0
    for plane in planes[1:]:
        more |= plane
    return planes[0] & ~more if planes else 0


def redundant_translate(inst: CoverInstance, translates) -> int | None:
    """The index of the first translate that covers no point alone, so
    that the others cover what the list covers; None if there is none."""
    planes: list[int] = []
    for v in translates:
        _add_mask(planes, cover_mask(inst, tuple(v)))
    once = _covered_once(planes)
    for i, v in enumerate(translates):
        if not cover_mask(inst, tuple(v)) & once:
            return i
    return None


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Largest-new-coverage greedy; ties broken by lexicographic translate."""
    translates, masks = _coverage_table(inst)
    return _bounded(inst, [translates[i] for i in _greedy(inst, masks)])


def _greedy(inst: CoverInstance, masks: list[int]) -> list[int]:
    """The greedy cover as translate indices; translate i sits at point i."""
    uncovered = (1 << inst.point_count) - 1
    chosen: list[int] = []
    while uncovered:
        best_i, best_gain = -1, -1
        for i, mask in enumerate(masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


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
    return _bounded(inst, chosen, s_random=s, leftover=len(leftovers))


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


def _coverers_of(inst: CoverInstance, translates: list[IntVec]):
    """coverers_of(point): the translates point - {0..d-1}^n, by index,
    each list built once. Translate i sits at point i."""
    d = inst.d
    coverers: dict[int, list[int]] = {}

    def coverers_of(point: int) -> list[int]:
        if point not in coverers:
            corner = tuple(c - (d - 1) for c in translates[point])
            box = _box_mask(inst, corner, d)
            out = coverers[point] = []
            while box:
                low = box & -box
                out.append(low.bit_length() - 1)
                box ^= low
        return coverers[point]

    return coverers_of


# The local search is seeded and capped by constants, so exact covers are
# byte-identical from run to run. A translate that moved stays put for
# _TABU_TENURE moves; _STALL_MOVES moves without a new fewest-uncovered
# count send the search back to its best cover.
_SEARCH_SEED = 0
_SEARCH_MOVES = 20_000
_TABU_TENURE = 3
_STALL_MOVES = 200


def _incumbent(
    inst: CoverInstance, masks: list[int], coverers_of, lower: int, budget: int
) -> tuple[list[int], int]:
    """The greedy cover, improved by a tabu search (Glover, "Tabu Search -
    Part I", ORSA J. Computing 1989) unless it already meets lower.
    Returns the cover as translate indices and the number of moves spent.

    The search holds one translate fewer than the best cover found. Each move
    adds, among the non-tabu coverers of a random uncovered point, one
    with the most fresh coverage, then drops the non-tabu held translate
    whose removal uncovers the fewest points; ties are broken at random.
    When nothing is left uncovered the holding becomes the best cover,
    and the translate whose removal uncovers the fewest points is
    dropped. The search stops when the best cover meets lower, or after
    min(_SEARCH_MOVES, budget) steps, each move, drop and restart
    counted. Cover counts are kept bit-sliced, so a move costs
    O(d^n + size) big-int operations.
    """
    best = _greedy(inst, masks)
    if len(best) == lower:
        return best, 0
    full = (1 << inst.point_count) - 1
    points = range(inst.point_count)
    rng = random.Random(_SEARCH_SEED)
    frozen_until: dict[int, int] = {}
    held: list[int] = []
    planes: list[int] = []

    def drop(positions) -> int:
        once = _covered_once(planes)
        losses = [(masks[held[i]] & once).bit_count() for i in positions]
        fewest = min(losses)
        i = rng.choice([i for i, loss in zip(positions, losses) if loss == fewest])
        removed = held.pop(i)
        _remove_mask(planes, masks[removed])
        return removed

    def restart() -> None:
        held[:] = best
        planes.clear()
        for t in held:
            _add_mask(planes, masks[t])
        drop(range(len(held)))

    restart()
    fewest_uncovered, stalled = None, 0
    moves = 0
    while moves < min(_SEARCH_MOVES, budget):
        moves += 1
        covered = 0
        for plane in planes:
            covered |= plane
        uncovered = full & ~covered
        if not uncovered:
            best = list(held)
            if len(best) == lower:
                break
            drop(range(len(held)))
            fewest_uncovered, stalled = None, 0
            continue
        targets = mask_cells(uncovered, points)
        if fewest_uncovered is None or len(targets) < fewest_uncovered:
            fewest_uncovered, stalled = len(targets), 0
        elif stalled == _STALL_MOVES:
            restart()
            fewest_uncovered, stalled = None, 0
            continue
        else:
            stalled += 1
        options = coverers_of(rng.choice(targets))
        options = [a for a in options if frozen_until.get(a, 0) < moves] or options
        gains = [(masks[a] & uncovered).bit_count() for a in options]
        most = max(gains)
        added = rng.choice([a for a, gain in zip(options, gains) if gain == most])
        held.append(added)
        _add_mask(planes, masks[added])
        positions = range(len(held) - 1)
        removed = drop(
            [i for i in positions if frozen_until.get(held[i], 0) < moves] or positions
        )
        frozen_until[added] = frozen_until[removed] = moves + _TABU_TENURE
    return best, moves


def exact_cover(inst: CoverInstance, budget: int = DEFAULT_BUDGET) -> CoverSolution:
    """Minimum cover, solved from both sides.

    The slice bound is the lower side. The upper side starts from the
    greedy cover, improved by a seeded tabu search unless it already
    meets the bound. If the two differ, a branch and bound goes on from
    that incumbent and stops as soon as the incumbent meets the bound.
    Every search move and every node counts against budget; when it runs
    out, the incumbent is returned with optimal=False and the slice bound
    as its lower bound.

    The branch and bound pins the first translate to the origin (the
    torus is transitive, so some minimum cover contains it). Every point
    p has exactly d^n coverers, the translates p - {0..d-1}^n, so
    branching takes the lowest-index uncovered point and tries its
    coverers by decreasing fresh coverage, ties by index. Pruning uses
    the better of the counting bound on the uncovered points and a
    greedy packing: uncovered points, taken in index order, whose
    windows p + {-(d-1)..d-1}^n are pairwise disjoint, that is, each pair
    more than 2(d-1) apart cyclically on some axis. No translate covers
    two of them.
    """
    d, n = inst.d, inst.n
    translates, masks = _coverage_table(inst)
    full = (1 << inst.point_count) - 1
    dpow = d**n
    lower = slice_lower_bound(inst)
    coverers_of = _coverers_of(inst, translates)

    best, moves = _incumbent(inst, masks, coverers_of, lower, budget)
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

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal nodes, exhausted, best
        nodes += 1
        if nodes > budget - moves:
            exhausted = True
            return
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        slack = len(best) - len(chosen)
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
            if exhausted or len(best) == lower:
                return

    if len(best) > lower:
        search(full & ~masks[0], [0])

    cover = [translates[i] for i in best]
    if exhausted:
        return _bounded(inst, cover, budget_exhausted=True)
    return CoverSolution(
        translates=cover, size=len(cover), optimal=True, lower_bound=len(cover)
    )


@dataclass(frozen=True)
class CnRow:
    n: int
    lower: int
    upper: int
    exact: bool


def cn_table(n_max: int, budget: int = DEFAULT_BUDGET) -> list[CnRow]:
    """Bounds on the minimum number of {0,1}^n translates covering Z_3^n.

    Each row is the exact search's answer: its lower bound (the slice
    bound, or the size once proved) and its cover's size. When the search
    finishes within budget the two collapse to the true value.
    """
    if n_max < 1:
        raise PreconditionError("need n_max >= 1")
    rows = []
    for n in range(1, n_max + 1):
        sol = exact_cover(CoverInstance(3, 2, n), budget=budget)
        rows.append(CnRow(n, sol.lower_bound, sol.size, sol.optimal))
    return rows
