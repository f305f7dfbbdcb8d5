"""Periodic colorings of R^n under the max norm, and the bounds they certify.

A coloring here is an exact partition of space: the fundamental cell
[0, period)^n is tiled by half-open boxes of a fixed side, and every box
is owned by exactly one color class. Classes built from a torus covering
have all their boxes inside one anchored window per period, which is the
whole certificate: two same-colored points either share a window copy
(every coordinate differs by less than the window) or straddle periods
(some coordinate differs by more than the gap). A finite space whose
diameter reaches the window and whose bottleneck connectivity fits under
the gap can then never appear monochromatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cover import (
    CoverInstance,
    cover_mask,
    random_cover_within_expectation,
    torus_points,
)
from .errors import DomainError, PreconditionError
from .metric import FiniteMetricSpace, Vec, connectivity_threshold, diameter
from .rational import ceil_div


@dataclass(frozen=True)
class PeriodicColoring:
    """A periodic box coloring given by ownership of lattice cells.

    The fundamental domain [0, period)^n splits into half-open boxes of
    side box_size on the box lattice. classes[i] lists the boxes owned by
    color i (as their lower corners), and window_anchors[i] is the corner
    of a half-open window of side `window` that contains all of them
    modulo the period. color_of extends the assignment to all of R^n by
    periodicity.
    """

    dim: int
    period: Fraction
    box_size: Fraction
    classes: tuple[tuple[Vec, ...], ...]
    window: Fraction
    window_anchors: tuple[Vec, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("coloring needs dim >= 1")
        if not 0 < self.box_size <= self.window <= self.period:
            raise PreconditionError("need 0 < box_size <= window <= period")
        if (self.period / self.box_size).denominator != 1:
            raise PreconditionError("period must be a whole number of boxes")
        if len(self.window_anchors) != len(self.classes):
            raise PreconditionError("one window anchor per class")
        if not self.classes:
            raise PreconditionError("coloring needs at least one class")
        for vecs in self.classes:
            if not vecs:
                raise PreconditionError("empty color class")
        for vec in self.window_anchors + tuple(v for c in self.classes for v in c):
            if len(vec) != self.dim:
                raise PreconditionError("offset dimension mismatch")
            for c in vec:
                if not 0 <= c < self.period:
                    raise PreconditionError("offsets must lie in [0, period)")
                if (c / self.box_size).denominator != 1:
                    raise PreconditionError("offsets must sit on the box lattice")

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def cells_per_axis(self) -> int:
        return int(self.period / self.box_size)

    @cached_property
    def _owner(self) -> dict[Vec, int]:
        table: dict[Vec, int] = {}
        for color, vecs in enumerate(self.classes):
            for vec in vecs:
                if vec in table:
                    raise DomainError(f"box {vec} owned twice")
                table[vec] = color
        return table

    def color_of(self, point) -> int:
        """Color of an arbitrary point of R^dim."""
        if len(point) != self.dim:
            raise PreconditionError("point dimension mismatch")
        cell = []
        for c in point:
            reduced = Fraction(c) % self.period
            cell.append(int(reduced // self.box_size) * self.box_size)
        owner = self._owner.get(tuple(cell))
        if owner is None:
            raise DomainError(f"box {tuple(cell)} has no color")
        return owner

    def check_partition(self) -> bool:
        """Every box of the fundamental domain is owned exactly once."""
        total = sum(len(vecs) for vecs in self.classes)
        if total != self.cells_per_axis**self.dim:
            raise DomainError(
                f"{total} owned boxes, expected {self.cells_per_axis ** self.dim}"
            )
        # _owner already rejects duplicates, so matching counts force a bijection.
        len(self._owner)
        return True

    def check_windows(self) -> bool:
        """All boxes of each class fit in that class's anchored window."""
        slack = self.window - self.box_size
        for color, (vecs, anchor) in enumerate(zip(self.classes, self.window_anchors)):
            for vec in vecs:
                for o, a in zip(vec, anchor):
                    if (o - a) % self.period > slack:
                        raise DomainError(
                            f"class {color}: box {vec} outside window at {anchor}"
                        )
        return True


def cube_tiling_coloring(n: int) -> PeriodicColoring:
    """The 2^n coloring by unit cubes: period 2, one class per parity vertex.

    Same-colored points differ by less than 1 in every coordinate or by
    more than 1 in some coordinate, so no two of them sit at distance
    exactly 1.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    one = Fraction(1)
    vertices = torus_points(CoverInstance(m=2, d=1, n=n))
    offsets = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    return PeriodicColoring(
        dim=n,
        period=Fraction(2),
        box_size=one,
        classes=tuple((v,) for v in offsets),
        window=one,
        window_anchors=offsets,
    )


def _ownership_classes(
    inst: CoverInstance, translates, unit: Fraction
) -> tuple[tuple[tuple[Vec, ...], ...], tuple[Vec, ...]]:
    """Group torus cells by the first covering translate that reaches them.

    Each translate owns the cells of its cube mask that no earlier
    translate covers, listed in index order; cells scale by `unit` into
    box corners. Translates shadowed entirely by earlier ones own nothing
    and contribute no class.
    """
    cells = torus_points(inst)  # in index order
    corner = [c * unit for c in range(inst.m)]
    covered = 0
    classes = []
    anchors = []
    for t in translates:
        owned = cover_mask(inst, t) & ~covered
        if not owned:
            continue
        covered |= owned
        bits = format(owned, "b")[::-1]
        vecs = []
        index = bits.find("1")
        while index >= 0:
            vecs.append(tuple(corner[c] for c in cells[index]))
            index = bits.find("1", index + 1)
        classes.append(tuple(vecs))
        anchors.append(tuple(corner[c] for c in t))
    uncovered = ~covered & ((1 << inst.point_count) - 1)
    if uncovered:
        cell = cells[(uncovered & -uncovered).bit_length() - 1]
        raise DomainError(f"cell {cell} not covered by any translate")
    return tuple(classes), tuple(anchors)


def avoidance_coloring(
    space: FiniteMetricSpace,
    n: int,
    mode: str = "randomized",
    seed: int = 0,
    d_prime=None,
    l_prime=None,
) -> PeriodicColoring:
    """A periodic coloring of R^n with no monochromatic copy of the space.

    Let d be the diameter and l the bottleneck connectivity threshold of
    the space. Any two same-colored points differ by less than the window
    in every coordinate, or by more than period - window in one of them.
    With window <= d and period - window >= l, a monochromatic copy would
    chain its bottleneck tree through one window yet realize the full
    diameter inside it, which the strict box bounds forbid.

    randomized mode needs d and l integral and covers (Z_{d+l})^n with
    d-cubes directly. asymptotic mode shrinks the window to d_prime and
    grows the gap to l_prime (defaults d*(1 - 1/64) and l*(1 + 1/64)),
    then realizes the rational ratio exactly on a finer box lattice.
    """
    d = diameter(space)
    l = connectivity_threshold(space)
    if n < 1:
        raise PreconditionError("need n >= 1")
    if mode == "randomized":
        if d_prime is not None or l_prime is not None:
            raise PreconditionError("window overrides only apply in asymptotic mode")
        if d.denominator != 1 or l.denominator != 1:
            raise PreconditionError(
                "randomized mode needs integral diameter and connectivity "
                "threshold; use asymptotic mode instead"
            )
        window = d
        gap = l
        unit = Fraction(1)
        inst = CoverInstance(m=int(d + l), d=int(d), n=n)
    elif mode == "asymptotic":
        window = Fraction(d_prime) if d_prime is not None else d * Fraction(63, 64)
        gap = Fraction(l_prime) if l_prime is not None else l * Fraction(65, 64)
        if not 0 < window <= d:
            raise PreconditionError("need 0 < d_prime <= diameter")
        if gap < l:
            raise PreconditionError("need l_prime >= connectivity threshold")
        ratio = window / (window + gap)
        unit = (window + gap) / ratio.denominator
        inst = CoverInstance(m=ratio.denominator, d=ratio.numerator, n=n)
    else:
        raise PreconditionError(f"unknown mode {mode!r}")

    solution, _, met = random_cover_within_expectation(inst, seed)
    classes, anchors = _ownership_classes(inst, solution.translates, unit)
    warnings = []
    if gap >= window:
        warnings.append(
            "gap >= window: the plain cube tiling would use no more colors"
        )
    if not met:
        warnings.append("covering size exceeded the expectation allowance")
    return PeriodicColoring(
        dim=n,
        period=window + gap,
        box_size=unit,
        classes=classes,
        window=window,
        window_anchors=anchors,
        warnings=tuple(warnings),
    )


def pigeonhole_lower_bound(k: int, n: int) -> int:
    """ceil((k+1)^n / k^n) colors are forced by unit batons on the k-grid."""
    if k < 1 or n < 1:
        raise PreconditionError("need k >= 1 and n >= 1")
    return ceil_div((k + 1) ** n, k**n)


def upper_bound_value(space: FiniteMetricSpace, n: int) -> float:
    """The analytic estimate n * ln n * (1 + l/d)^n on the colors needed to
    avoid the space in dimension n, with d its diameter and l its
    bottleneck connectivity threshold.

    It only says something for large n; avoidance_coloring builds an
    actual coloring and certifies its class count.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    ratio = float(1 + connectivity_threshold(space) / diameter(space))
    try:
        value = n * math.log(n) * ratio**n
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the estimate overflows a float at n = {n}")
    return value
