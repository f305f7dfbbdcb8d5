"""Slow exact oracles for the torus cover solver, shared by the test modules."""

import itertools

from maxram import CoverInstance, CoverSolution
from maxram.cover import cover_mask, torus_points


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
