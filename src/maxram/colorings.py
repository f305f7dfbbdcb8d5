"""Periodic colorings of R^n under the max norm, and the bounds they certify.

A coloring here is an exact partition of space: the fundamental cell
[0, period)^n is tiled by half-open boxes of a fixed side, and every box
is owned by exactly one color class. Boxes and window anchors are integer
box-lattice indices (corner / box side), in memory and in certificates
alike; rationals appear only in the period, box side and window. Classes
built from a torus covering have all their boxes inside one anchored
window per period, which is the whole certificate: two same-colored
points either share a window copy (every coordinate differs by less
than the window) or straddle periods (some coordinate differs by more
than the gap). A finite space whose
diameter reaches the window and whose bottleneck connectivity fits under
the gap can then never appear monochromatically. Every coloring comes
from one recipe: window/(window + gap) = a/b in lowest terms names the
torus (Z_b)^n and its a-cubes, each torus cell a box of side period/b.
A coloring is kept as the translates that own a cell, not as its boxes:
each class is its cube's mask less the earlier cubes', expanded to boxes
only where the certificate is written, so the class count alone (bounds)
never lists a box."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bits import mask_cells
from .cover import (
    CoverInstance,
    IntVec,
    cover_mask,
    random_cover_within_expectation,
    torus_point,
    torus_points,
)
from .errors import DomainError
from .metric import FiniteMetricSpace, connectivity_threshold, diameter


class PeriodicColoring(NamedTuple):
    """A periodic box coloring given by the translates that own its cells.

    The fundamental domain [0, period)^n splits into half-open boxes of
    side box_size on the box lattice; a box is named by its integer index
    vector, its lower corner divided by box_size, so the boxes are the
    cells of the torus (Z_c)^n, c = cells_per_axis. Color i owns
    the cells of the half-open window of side `window` cornered at
    window_anchors[i], modulo the period, that no earlier window covers;
    every anchor owns at least one cell. Periodicity extends the
    assignment to all of R^n. Built unchecked: avoidance_coloring colors
    from a cover, and the validator reads a stated coloring into the same
    record, its boxes held beside it, and checks it class by class and
    axis by axis (validate._check_coloring).
    """

    dim: int
    period: Fraction
    box_size: Fraction
    window: Fraction
    window_anchors: tuple[IntVec, ...]
    warnings: tuple[str, ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.window_anchors)

    @property
    def cells_per_axis(self) -> int:
        return int(self.period / self.box_size)

    @property
    def torus(self) -> CoverInstance:
        """The torus of box cells with the window's cube. The window must
        be a whole number of boxes, as in every coloring
        avoidance_coloring builds."""
        return CoverInstance(
            self.cells_per_axis, int(self.window / self.box_size), self.dim
        )

    def owned_masks(self):
        """Each class's owned cells as a bitmask over the torus, in class
        order: its window's cube mask less the cells of earlier windows."""
        torus = self.torus
        covered = 0
        for anchor in self.window_anchors:
            mask = cover_mask(torus, anchor)
            yield mask & ~covered
            covered |= mask

    @property
    def classes(self) -> tuple[tuple[IntVec, ...], ...]:
        """The boxes each class owns, in index order, expanded from its
        owned mask."""
        cells = torus_points(self.torus)
        return tuple(tuple(mask_cells(mask, cells)) for mask in self.owned_masks())


def _owning_translates(inst: CoverInstance, translates) -> tuple[IntVec, ...]:
    """The translates that own a torus cell: those whose cube reaches a
    cell no earlier translate covers. Translates shadowed entirely by
    earlier ones own nothing and are dropped; a cell that no translate
    covers is refused."""
    covered = 0
    anchors = []
    for t in translates:
        mask = cover_mask(inst, t)
        if mask & ~covered:
            covered |= mask
            anchors.append(tuple(t))
    uncovered = ~covered & ((1 << inst.point_count) - 1)
    if uncovered:
        cell = torus_point(inst, (uncovered & -uncovered).bit_length() - 1)
        raise DomainError(f"cell {cell} not covered by any translate")
    return tuple(anchors)


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
    anchors = _owning_translates(inst, solution.translates)
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
        window=window,
        window_anchors=anchors,
        warnings=tuple(warnings),
    )
