"""Periodic colorings of R^n under the max norm, and the bounds they certify.

A coloring here is an exact partition of space: the fundamental cell
[0, period)^n is tiled by half-open boxes of a fixed side, and every box
is owned by exactly one color class. Boxes and window anchors are integer
box-lattice indices (corner / box side); rationals appear only where a
certificate is written or read. Classes built from a torus covering
have all their boxes inside one anchored window per period, which is the
whole certificate: two same-colored points either share a window copy
(every coordinate differs by less than the window) or straddle periods
(some coordinate differs by more than the gap). A finite space whose
diameter reaches the window and whose bottleneck connectivity fits under
the gap can then never appear monochromatically. Every coloring comes
from one recipe: window/(window + gap) = a/b in lowest terms names the
torus (Z_b)^n and its a-cubes, each torus cell a box of side period/b.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cover import (
    CoverInstance,
    IntVec,
    cover_mask,
    mask_cells,
    random_cover_within_expectation,
    torus_points,
)
from .errors import DomainError
from .metric import FiniteMetricSpace, connectivity_threshold, diameter


class PeriodicColoring(NamedTuple):
    """A periodic box coloring given by ownership of lattice cells.

    The fundamental domain [0, period)^n splits into half-open boxes of
    side box_size on the box lattice; a box is named by its integer index
    vector, its lower corner divided by box_size. classes[i] lists the
    boxes owned by color i, and window_anchors[i] is the index of the
    corner of a half-open window of side `window` that contains all of
    them modulo the period. Periodicity extends the assignment to all of
    R^n. Built unchecked: avoidance_coloring colors from a cover, and the
    validator checks a stated coloring class by class and axis by axis
    (validate._check_coloring).
    """

    dim: int
    period: Fraction
    box_size: Fraction
    classes: tuple[tuple[IntVec, ...], ...]
    window: Fraction
    window_anchors: tuple[IntVec, ...]
    warnings: tuple[str, ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def cells_per_axis(self) -> int:
        return int(self.period / self.box_size)


def _ownership_classes(
    inst: CoverInstance, translates
) -> tuple[tuple[tuple[IntVec, ...], ...], tuple[IntVec, ...]]:
    """Group torus cells by the first covering translate that reaches them.

    Each translate owns the cells of its cube mask that no earlier
    translate covers, listed in index order. Translates shadowed entirely
    by earlier ones own nothing and contribute no class.
    """
    cells = torus_points(inst)  # in index order
    covered = 0
    classes = []
    anchors = []
    for t in translates:
        owned = cover_mask(inst, t) & ~covered
        if not owned:
            continue
        covered |= owned
        classes.append(tuple(mask_cells(owned, cells)))
        anchors.append(tuple(t))
    uncovered = ~covered & ((1 << inst.point_count) - 1)
    if uncovered:
        cell = cells[(uncovered & -uncovered).bit_length() - 1]
        raise DomainError(f"cell {cell} not covered by any translate")
    return tuple(classes), tuple(anchors)


def avoidance_coloring(
    space: FiniteMetricSpace, n: int, asymptotic: bool = False, seed: int = 0
) -> PeriodicColoring:
    """A periodic coloring of R^n with no monochromatic copy of the space.

    Let d be the diameter and l the bottleneck connectivity threshold of
    the space. Any two same-colored points differ by less than the window
    in every coordinate, or by more than period - window in one of them.
    With window <= d and period - window >= l, a monochromatic copy would
    chain its bottleneck tree through one window yet realize the full
    diameter inside it, which the strict box bounds forbid.

    The window and gap are d and l, or d*(1 - 1/64) and l*(1 + 1/64)
    with asymptotic. With window/(window + gap) = a/b in lowest terms,
    the coloring covers (Z_b)^n with a-cubes on boxes of side
    (window + gap)/b, for rational spaces as for integral ones: integral
    coprime d and l give the torus Z_(d+l) at box side 1, and the points
    0, 2, 4 give Z_3 at box side 2.

    The unit 1-baton (window 1, gap 1, period 2) gives the 2^n cube
    tiling: one class per vertex of {0,1}^n, in lexicographic order.
    """
    window = diameter(space)
    gap = connectivity_threshold(space)
    if asymptotic:
        window, gap = window * Fraction(63, 64), gap * Fraction(65, 64)
    period = window + gap
    ratio = window / period
    inst = CoverInstance(m=ratio.denominator, d=ratio.numerator, n=n)

    solution, met = random_cover_within_expectation(inst, seed)
    classes, anchors = _ownership_classes(inst, solution.translates)
    warnings = []
    if gap >= window:
        warnings.append(
            "gap >= window: the plain cube tiling would use no more colors"
        )
    if not met:
        warnings.append("covering size exceeded the expectation allowance")
    return PeriodicColoring(
        dim=n,
        period=period,
        box_size=period / ratio.denominator,
        classes=classes,
        window=window,
        window_anchors=anchors,
        warnings=tuple(warnings),
    )
