"""Slow exact oracles for the torus cover solver, shared by the test modules."""

import itertools
import random
from fractions import Fraction

from maxram.bits import ceil_div, count_down, count_up, exactly_one, mask_cells, nonzero
from maxram.cover import (
    _SEARCH_MOVES,
    _SEARCH_SEED,
    _STALL_MOVES,
    _TABU_TENURE,
    CoverInstance,
    CoverSolution,
    _greedy,
    cover_mask,
    torus_points,
)
from maxram.rational import floor_times_log


def set_box_mask(inst: CoverInstance, corner, side: int) -> int:
    """The points corner + {0..side-1}^n (mod m), gathered as a set of
    coordinate tuples and then set bit by bit, row-major."""
    m, n = inst.m, inst.n
    axes = [{(c + t) % m for t in range(side)} for c in corner]
    cells = set(itertools.product(*axes))
    mask = 0
    for cell in cells:
        mask |= 1 << sum(x * m ** (n - 1 - i) for i, x in enumerate(cell))
    return mask


def find_mask_cells(mask: int, cells) -> list:
    """The cells whose bits are set in mask, in index order, found one set
    bit at a time with str.find on the reversed binary digits; oracle for
    mask_cells."""
    bits = format(mask, "b")[::-1]
    found = []
    index = bits.find("1")
    while index >= 0:
        found.append(cells[index])
        index = bits.find("1", index + 1)
    return found


def counting_lower_bound(inst: CoverInstance) -> int:
    """ceil(m^n / d^n): each translate covers exactly d^n points."""
    return ceil_div(inst.point_count, inst.d**inst.n)


def draw_count(inst: CoverInstance) -> int:
    """s = floor(n * ln d * (m/d)^n), the random construction's draws."""
    return floor_times_log(inst.n * Fraction(inst.m, inst.d) ** inst.n, inst.d)


def random_draws(inst: CoverInstance, seed: int) -> list[tuple[int, ...]]:
    """The translates the random construction draws before it patches:
    draw_count(inst) uniform corners from random.Random(seed), repeats
    dropped, in draw order."""
    rng = random.Random(seed)
    drawn = {}
    for _ in range(draw_count(inst)):
        drawn[tuple(rng.randrange(inst.m) for _ in range(inst.n))] = None
    return list(drawn)


def full_scan_greedy(inst: CoverInstance) -> list[tuple[int, ...]]:
    """The greedy cover with no early stop: each round scans every
    translate and takes the lowest-index one with the most fresh
    coverage; oracle for greedy_cover."""
    translates = torus_points(inst)
    masks = [cover_mask(inst, v) for v in translates]
    uncovered = (1 << inst.point_count) - 1
    chosen = []
    while uncovered:
        gains = [(mask & uncovered).bit_count() for mask in masks]
        best = gains.index(max(gains))
        chosen.append(translates[best])
        uncovered &= ~masks[best]
    return chosen


def naive_minimum_cover(inst: CoverInstance) -> CoverSolution:
    """Subset enumeration by increasing size; oracle for small instances."""
    translates = torus_points(inst)
    masks = [cover_mask(inst, v) for v in translates]
    full = (1 << inst.point_count) - 1
    for size in range(1, len(translates) + 1):
        for combo in itertools.combinations(range(len(translates)), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return CoverSolution(
                    translates=[translates[i] for i in combo],
                    size=size,
                    optimal=True,
                    lower_bound=size,
                )
    raise AssertionError("full translate set always covers")


def listing_incumbent(
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

    The listing form of the search, the oracle for _incumbent: every
    uncovered point is listed for rng.choice, and each choice's
    candidates are filtered, scored and searched for ties in separate
    passes.
    """
    best = _greedy(inst, masks)
    if len(best) == lower:
        return best, 0
    full = (1 << inst.point_count) - 1
    points = range(inst.point_count)
    rng = random.Random(_SEARCH_SEED)
    # frozen_until[t]: the last move on which translate t is tabu
    frozen_until = [0] * inst.point_count
    held: list[int] = []
    planes: list[int] = []

    def drop(positions) -> int:
        once = exactly_one(planes)
        losses = [(masks[held[i]] & once).bit_count() for i in positions]
        fewest = min(losses)
        i = rng.choice([i for i, loss in zip(positions, losses) if loss == fewest])
        removed = held.pop(i)
        count_down(planes, masks[removed])
        return removed

    def restart() -> None:
        held[:] = best
        planes.clear()
        for t in held:
            count_up(planes, masks[t])
        drop(range(len(held)))

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
        options = [a for a in options if frozen_until[a] < moves] or options
        gains = [(masks[a] & uncovered).bit_count() for a in options]
        most = max(gains)
        added = rng.choice([a for a, gain in zip(options, gains) if gain == most])
        held.append(added)
        count_up(planes, masks[added])
        positions = range(len(held) - 1)
        removed = drop(
            [i for i in positions if frozen_until[held[i]] < moves] or positions
        )
        frozen_until[added] = frozen_until[removed] = moves + _TABU_TENURE
    return best, moves
