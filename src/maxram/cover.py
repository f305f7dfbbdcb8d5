"""Covering the discrete torus Z_m^n by translates of the cube {0..d-1}^n.

Coverings are exact set-cover instances over bitmask coverage tables.
Point (c_0, ..., c_{n-1}) is bit sum c_i * m^(n-1-i), and every cube the
module needs (a translate's points, a point's coverers) comes from the
one builder cover_mask, an AND of one turned slab per axis. The
coverage table holds cover_mask's box for every translate; it turns
each slab once per offset and shares the ANDs of row-major prefixes.
Three constructions are provided: the lexicographic greedy, the
randomized construction (floor(n * ln d * (m/d)^n) uniform translates
plus one patch per point left uncovered) whose expected leftover count
is below (m/d)^n, and minimum covers solved from both sides. Below, the
slice bound; above, a seeded tabu search from the greedy cover, then a
branch and bound, pruned by the counting bound, with a node budget. The
solve ends as soon as the two meet. Each construction reports the slice
bound as its lower bound. Cover counts per point are `bits` counters.

The greedy and exact covers work in integers only: loading this module
loads no rational arithmetic, and only the random construction's draw
count, a floor of n * ln d * (m/d)^n, imports it when called.
"""

from __future__ import annotations

import itertools
import math
import random

from .bits import ceil_div, count_down, count_up, exactly_one, mask_cells, nonzero
from .errors import DEFAULT_BUDGET, DomainError, PreconditionError

IntVec = tuple[int, ...]

# Each cover check ORs masks of m^n bits, so a torus with more points is
# refused before any mask, or m^n itself, is built. The cap admits the
# 6,967,871 points of the (191, 63, 3) random cover.
MAX_TORUS_POINTS = 2**24

# greedy_cover and exact_cover build a coverage table of m^n masks of m^n
# bits each, so a torus of more points gets no table: `cover --greedy` on
# (3, 2, 11), 177,147 points, ends in MemoryError under a 2 GB address
# space limit. The largest table any test or workload builds is
# (45, 15, 2), 2,025 points.
MAX_TABLE_POINTS = 2**16


class CoverInstance:
    def __init__(self, m: int, d: int, n: int):
        self.m = m
        self.d = d
        self.n = n
        if not (1 <= d <= m):
            raise PreconditionError("need 1 <= d <= m")
        if n < 1:
            raise PreconditionError("need n >= 1")
        # n is bounded before m^n is computed; at m >= 2 the bound alone
        # means more points than the cap, and at m = 1 it bounds the
        # length of the one translate and of the slice bound's chain.
        if n >= MAX_TORUS_POINTS.bit_length() or self.point_count > MAX_TORUS_POINTS:
            if m == 1:
                limit = MAX_TORUS_POINTS.bit_length()
                raise DomainError(f"the one-point torus needs n < {limit}")
            raise DomainError(f"the torus has more than {MAX_TORUS_POINTS} points")
        # cover_mask's per-axis slabs and the full mask, built on first use
        self._slabs: tuple[list[tuple[int, int, int]], int] | None = None

    @property
    def point_count(self) -> int:
        return self.m**self.n


class CoverSolution:
    def __init__(
        self,
        translates: list[IntVec],
        size: int,
        optimal: bool,
        lower_bound: int,
        budget_exhausted: bool = False,
    ):
        self.translates = translates
        self.size = size
        self.optimal = optimal
        self.lower_bound = lower_bound
        self.budget_exhausted = budget_exhausted

    def __eq__(self, other):
        if type(other) is not CoverSolution:
            return NotImplemented
        return vars(self) == vars(other)


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


def _bounded(
    inst: CoverInstance, translates: list[IntVec], budget_exhausted: bool = False
) -> CoverSolution:
    """A cover with the slice bound as its lower bound; optimal when it meets it."""
    lower = slice_lower_bound(inst)
    return CoverSolution(
        translates=translates,
        size=len(translates),
        optimal=len(translates) == lower,
        lower_bound=lower,
        budget_exhausted=budget_exhausted,
    )


def torus_points(inst: CoverInstance) -> list[IntVec]:
    return list(itertools.product(range(inst.m), repeat=inst.n))


def torus_point(inst: CoverInstance, index: int) -> IntVec:
    """The point whose bit is index, its coordinates the base-m digits."""
    m, n = inst.m, inst.n
    return tuple(index // m ** (n - 1 - j) % m for j in range(n))


def _repeated(block: int, period: int, count: int) -> int:
    """count copies of block, period bits apart, by doubling."""
    result, width = 0, period
    while count:
        if count & 1:
            result = result << width | block
        count >>= 1
        if count:
            block |= block << width
            width *= 2
    return result


def _slabs(inst: CoverInstance) -> tuple[list[tuple[int, int, int]], int]:
    """Per axis i, (slab, period, stride): the points whose coordinate i
    lies in 0..d-1, a pattern of period m * stride, stride = m^(n-1-i),
    written one period past the m^n bits; and the full mask. Built once
    per instance."""
    if inst._slabs is None:
        m, n, size = inst.m, inst.n, inst.point_count
        slabs = []
        for i in range(n):
            stride = m ** (n - 1 - i)
            period = m * stride
            block = (1 << inst.d * stride) - 1
            slabs.append((_repeated(block, period, size // period + 1), period, stride))
        inst._slabs = slabs, (1 << size) - 1
    return inst._slabs


def cover_mask(inst: CoverInstance, corner: IntVec) -> int:
    """Bitmask of the points corner + {0..d-1}^n (mod m), row-major.

    The AND over the axes i of the slab of points whose coordinate i lies
    in 0..d-1, turned cyclically by corner_i on axis i, which is
    c_i * m^(n-1-i) bits: the slab repeats with period m^(n-i), so a shift
    of its copy one period longer turns it. Any integer corner is taken
    mod m.
    """
    slabs, mask = _slabs(inst)
    m = inst.m
    for c, (slab, period, stride) in zip(corner, slabs):
        mask &= slab >> (period - c % m * stride)
    return mask


def _check_table(inst: CoverInstance) -> None:
    if inst.point_count > MAX_TABLE_POINTS:
        raise DomainError(
            f"the torus has more than {MAX_TABLE_POINTS} points for a coverage table"
        )


def _coverage_table(inst: CoverInstance) -> tuple[list[IntVec], list[int]]:
    """Every translate in row-major order, each with its cover_mask.

    cover_mask turns one slab per axis for each translate; here each
    axis's slab is turned once per offset, n * m shifts in all, and the
    masks are ANDed axis by axis, each translate's prefix over the first
    axes shared by the m translates that extend it. A prefix is let go
    as soon as it is extended, so the table's own masks set the peak
    memory: (3, 2, 10) holds 59,049 masks of 7.4 KB.
    """
    _check_table(inst)
    slabs, full = _slabs(inst)
    masks = [full]
    for slab, period, stride in slabs:
        turned = [slab >> (period - c * stride) for c in range(inst.m)]
        prefixes, masks = masks[::-1], []
        while prefixes:
            prefix = prefixes.pop()
            masks += [prefix & box for box in turned]
    return torus_points(inst), masks


def is_cover(inst: CoverInstance, translates) -> bool:
    full = (1 << inst.point_count) - 1
    acc = 0
    for v in translates:
        acc |= cover_mask(inst, tuple(v))
        if acc == full:
            return True
    return acc == full


def redundant_translate(inst: CoverInstance, translates) -> int | None:
    """The index of the first translate that covers no point alone, so
    that the others cover what the list covers; None if there is none."""
    planes: list[int] = []
    for v in translates:
        count_up(planes, cover_mask(inst, tuple(v)))
    once = exactly_one(planes)
    for i, v in enumerate(translates):
        if not cover_mask(inst, tuple(v)) & once:
            return i
    return None


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Largest-new-coverage greedy; ties broken by lexicographic translate."""
    translates, masks = _coverage_table(inst)
    return _bounded(inst, [translates[i] for i in _greedy(inst, masks)])


def _greedy(inst: CoverInstance, masks: list[int]) -> list[int]:
    """The greedy cover as translate indices; translate i sits at point i.

    Each round takes the lowest-index translate with the most fresh
    coverage. No translate covers more than min(d^n, uncovered points)
    fresh ones, so the scan stops at the first that reaches it. The
    uncovered points only shrink, so a translate with no fresh coverage
    never gains any again: each round's scan starts past the leading run
    of such translates, and that start only moves forward.
    """
    uncovered = (1 << inst.point_count) - 1
    dpow = inst.d**inst.n
    chosen: list[int] = []
    start = 0
    while uncovered:
        while not masks[start] & uncovered:
            start += 1
        most = min(dpow, uncovered.bit_count())
        best_i, best_gain = -1, -1
        for i in range(start, len(masks)):
            gain = (masks[i] & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
                if gain == most:
                    break
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


def _draw_count(inst: CoverInstance) -> int:
    """s = floor(n * ln d * (m/d)^n), the random construction's draws: the
    module's one rational step, so it imports rational arithmetic itself."""
    from fractions import Fraction

    from .rational import floor_times_log

    return floor_times_log(inst.n * Fraction(inst.m, inst.d) ** inst.n, inst.d)


def random_translates_cover(inst: CoverInstance, seed: int = 0) -> CoverSolution:
    """s = floor(n * ln d * (m/d)^n) uniform random translates, then one
    patch translate placed at every point still uncovered. floor_times_log
    certifies s from decimal's correctly rounded ln.

    At d = 1 no translate is drawn (ln 1 = 0), and patching every point in
    index order gives exactly the greedy cover.
    """
    m, n, s = inst.m, inst.n, _draw_count(inst)
    rng = random.Random(seed)
    drawn = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(s)]
    chosen: list[IntVec] = list(dict.fromkeys(drawn))
    covered = 0
    for v in chosen:
        covered |= cover_mask(inst, v)
    full = (1 << inst.point_count) - 1
    for i in mask_cells(full & ~covered, range(inst.point_count)):
        point = torus_point(inst, i)
        chosen.append(point)
        covered |= cover_mask(inst, point)
    assert covered == full
    return _bounded(inst, chosen)


_MAX_RETRIES = 1000


def random_cover_within_expectation(
    inst: CoverInstance, seed: int = 0
) -> tuple[CoverSolution, bool]:
    """Retry seeds until total size <= s + ceil((m/d)^n), the integer form
    of the expectation guarantee. Returns (best solution, met)."""
    target = _draw_count(inst) + ceil_div(inst.point_count, inst.d**inst.n)
    best: CoverSolution | None = None
    for attempt in range(_MAX_RETRIES):
        sol = random_translates_cover(inst, seed + attempt)
        if best is None or sol.size < best.size:
            best = sol
        if sol.size <= target:
            return sol, True
    assert best is not None
    return best, False


def _coverers_of(inst: CoverInstance, translates: list[IntVec]):
    """coverers_of(point): the translates point - {0..d-1}^n, by index,
    each list built once. Translate i sits at point i."""
    d = inst.d
    indices = range(inst.point_count)
    coverers: dict[int, list[int]] = {}

    def coverers_of(point: int) -> list[int]:
        if point not in coverers:
            corner = tuple(c - (d - 1) for c in translates[point])
            coverers[point] = mask_cells(cover_mask(inst, corner), indices)
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
    O(d^n + size) big-int operations; tabu tenures sit in a list indexed
    by translate.

    No step lists the uncovered points or the scores. The random point
    is drawn as a rank among the uncovered bits and reached by clearing
    the lower ones; each choice scores its candidates, passes over the
    tabu ones and gathers the ties in one loop, in candidate order. As
    rng.randrange(k) draws what rng.choice draws from a list of k, the
    search makes the draws, and so the moves, of one that lists them.
    """
    best = _greedy(inst, masks)
    if len(best) == lower:
        return best, 0
    full = (1 << inst.point_count) - 1
    rng = random.Random(_SEARCH_SEED)
    # frozen_until[t]: the last move on which translate t is tabu
    frozen_until = [0] * inst.point_count
    held: list[int] = []
    planes: list[int] = []

    def pick(candidates: list[int], wanted: int, move: float) -> int:
        """Among candidates, a translate with the most points in wanted,
        at random among ties; those tabu on move are passed over unless
        all are."""
        most, ties = -1, []
        for tabu_from in (move, math.inf):
            for t in candidates:
                if frozen_until[t] < tabu_from:
                    score = (masks[t] & wanted).bit_count()
                    if score > most:
                        most, ties = score, [t]
                    elif score == most:
                        ties.append(t)
            if ties:
                break
        return rng.choice(ties)

    def drop(candidates: list[int], move: float = math.inf) -> int:
        """Drop the candidate whose removal uncovers the fewest points:
        every held translate covers d^n points, so it is the one with the
        most points covered twice or more."""
        removed = pick(candidates, full ^ exactly_one(planes), move)
        # held has no repeats: a move adds a coverer of an uncovered point
        held.remove(removed)
        count_down(planes, masks[removed])
        return removed

    def restart() -> None:
        held[:] = best
        planes.clear()
        for t in held:
            count_up(planes, masks[t])
        drop(held)

    restart()
    fewest_uncovered, stalled = None, 0
    moves = 0
    while moves < min(_SEARCH_MOVES, budget):
        moves += 1
        uncovered = full & ~nonzero(planes)
        if not uncovered:
            best = list(held)
            if len(best) == lower:
                break
            drop(held)
            fewest_uncovered, stalled = None, 0
            continue
        count = uncovered.bit_count()
        if fewest_uncovered is None or count < fewest_uncovered:
            fewest_uncovered, stalled = count, 0
        elif stalled == _STALL_MOVES:
            restart()
            fewest_uncovered, stalled = None, 0
            continue
        else:
            stalled += 1
        rest = uncovered
        for _ in range(rng.randrange(count)):
            rest &= rest - 1
        added = pick(coverers_of((rest & -rest).bit_length() - 1), uncovered, moves)
        held.append(added)
        count_up(planes, masks[added])
        removed = drop(held[:-1], moves)
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
    coverers by decreasing fresh coverage, ties by index. A node is
    pruned when the counting bound, ceil(uncovered points / d^n) more
    translates, leaves no room below the incumbent.
    """
    translates, masks = _coverage_table(inst)
    full = (1 << inst.point_count) - 1
    dpow = inst.d**inst.n
    lower = slice_lower_bound(inst)
    coverers_of = _coverers_of(inst, translates)

    best, moves = _incumbent(inst, masks, coverers_of, lower, budget)
    nodes = 0
    exhausted = False

    def search() -> None:
        """Depth-first from the origin translate. The stack holds each
        open node's uncovered points and untried coverers, and chosen one
        slot per open node, so Python's recursion limit does not cap the
        depth."""
        nonlocal nodes, exhausted, best
        uncovered, chosen = full & ~masks[0], [0]
        stack = []
        while True:
            nodes += 1
            if nodes > budget - moves:
                exhausted = True
                return
            slack = len(best) - len(chosen)
            if not uncovered:
                if slack > 0:
                    best = list(chosen)
                    if len(best) == lower:
                        return
            elif ceil_div(uncovered.bit_count(), dpow) < slack:
                target = (uncovered & -uncovered).bit_length() - 1
                order = sorted(
                    coverers_of(target),
                    key=lambda ti: (-(masks[ti] & uncovered).bit_count(), ti),
                )
                stack.append((uncovered, iter(order)))
                chosen.append(-1)
            # Back up to the deepest open node with a coverer left to try.
            while stack and (ti := next(stack[-1][1], None)) is None:
                stack.pop()
                chosen.pop()
            if not stack:
                return
            chosen[-1] = ti
            uncovered = stack[-1][0] & ~masks[ti]

    if len(best) > lower:
        search()

    cover = [translates[i] for i in best]
    if exhausted:
        return _bounded(inst, cover, budget_exhausted=True)
    return CoverSolution(
        translates=cover, size=len(cover), optimal=True, lower_bound=len(cover)
    )


def cn_table(n_max: int, budget: int = DEFAULT_BUDGET) -> list[CoverSolution]:
    """Bounds on the minimum number of {0,1}^n translates covering Z_3^n,
    for n = 1..n_max.

    Each row is the exact search's answer: its lower bound (the slice
    bound, or the size once proved) and its cover's size. When the search
    finishes within budget the two collapse to the true value.
    """
    if n_max < 1:
        raise PreconditionError("need n_max >= 1")
    # Every row is checked before the first is solved.
    instances = []
    for n in range(1, n_max + 1):
        instances.append(CoverInstance(3, 2, n))
        _check_table(instances[-1])
    return [exact_cover(inst, budget=budget) for inst in instances]
