"""Slow exact oracles for the torus cover solver, shared by the test modules."""

import itertools
import random
from fractions import Fraction

from maxram.cover import CoverInstance, CoverSolution, cover_mask, torus_points
from maxram.bits import ceil_div
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
