"""Slow exact oracles for the torus cover solver, shared by the test modules."""

import itertools

from maxram.cover import CoverInstance, CoverSolution, cover_mask, torus_points
from maxram.rational import ceil_div


def counting_lower_bound(inst: CoverInstance) -> int:
    """ceil(m^n / d^n): each translate covers exactly d^n points."""
    return ceil_div(inst.point_count, inst.d**inst.n)


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
