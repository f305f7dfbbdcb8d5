"""Periodic box colorings and the copy-avoidance bounds built on them."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxram.colorings import (
    PeriodicColoring,
    _ownership_classes,
    avoidance_coloring,
    cube_tiling_coloring,
    pigeonhole_lower_bound,
    upper_bound_value,
)
from maxram.cover import (
    CoverInstance,
    is_cover,
    random_cover_within_expectation,
    random_translates_cover,
    torus_points,
)
from maxram.errors import DomainError, PreconditionError
from maxram.io import periodic_coloring_certificate
from maxram.metric import Baton, FiniteMetricSpace, PointSet
from maxram.rational import format_rational

F = Fraction

B1 = Baton.unit(1).as_metric_space()
B2 = Baton.unit(2).as_metric_space()
HALF_PAIR = FiniteMetricSpace.from_points(PointSet(1, ((F(0),), (F(3, 2),))))


# -- PeriodicColoring --------------------------------------------------------


def test_cube_tiling_partitions_and_fits_windows():
    col = cube_tiling_coloring(2)
    assert col.class_count == 4
    assert col.cells_per_axis == 2
    assert col.check_partition()
    assert col.check_windows()
    assert col.warnings == ()


def test_cube_tiling_color_lookup():
    col = cube_tiling_coloring(1)
    assert col.color_of((F(0),)) != col.color_of((F(1),))
    assert col.color_of((F(1, 2),)) == col.color_of((F(0),))
    # periodicity, including negative coordinates
    assert col.color_of((F(-2),)) == col.color_of((F(0),))
    assert col.color_of((F(-1, 2),)) == col.color_of((F(3, 2),))


def test_cube_tiling_rejects_bad_dimension():
    with pytest.raises(PreconditionError):
        cube_tiling_coloring(0)
    with pytest.raises(PreconditionError):
        cube_tiling_coloring(2).color_of((F(0),))


@given(
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cube_tiling_separates_points_at_distance_exactly_one(n, data):
    """The defining property: no two same-colored points at distance 1."""
    col = cube_tiling_coloring(n)
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    x = data.draw(st.tuples(*[coord] * n))
    # a point at max-distance exactly 1: one axis pinned to +-1, rest free
    axis = data.draw(st.integers(0, n - 1))
    sign = data.draw(st.sampled_from([-1, 1]))
    small = st.fractions(min_value=-1, max_value=1, max_denominator=8)
    offset = list(data.draw(st.tuples(*[small] * n)))
    offset[axis] = F(sign)
    y = tuple(a + b for a, b in zip(x, offset))
    assert col.color_of(x) != col.color_of(y)


def test_coloring_validation_errors():
    one = F(1)
    good = dict(
        dim=1,
        period=F(2),
        box_size=one,
        classes=(((0,),), ((1,),)),
        window=one,
        window_anchors=((0,), (1,)),
    )
    PeriodicColoring(**good)
    with pytest.raises(PreconditionError, match="dim"):
        PeriodicColoring(**{**good, "dim": 0})
    with pytest.raises(PreconditionError, match="box_size"):
        PeriodicColoring(**{**good, "window": F(1, 2)})
    with pytest.raises(PreconditionError, match="whole number"):
        PeriodicColoring(**{**good, "period": F(3, 2), "window": F(3, 2)})
    with pytest.raises(PreconditionError, match="anchor"):
        PeriodicColoring(**{**good, "window_anchors": ((0,),)})
    with pytest.raises(PreconditionError, match="empty"):
        PeriodicColoring(**{**good, "classes": (((0,),), ())})
    with pytest.raises(PreconditionError, match="dimension"):
        PeriodicColoring(**{**good, "classes": (((0,),), ((1, 0),))})
    # boxes are integer lattice indices: any other value is off the lattice
    for off in (F(1, 2), F(1), 1.0):
        with pytest.raises(PreconditionError, match="lattice"):
            PeriodicColoring(**{**good, "classes": (((0,),), ((off,),))})
    with pytest.raises(PreconditionError, match="period"):
        PeriodicColoring(**{**good, "window_anchors": ((0,), (2,))})
    with pytest.raises(PreconditionError, match="period"):
        PeriodicColoring(**{**good, "window_anchors": ((0,), (-1,))})


def test_partition_check_catches_double_and_missing_ownership():
    base = dict(dim=1, period=F(2), box_size=F(1), window=F(1))
    doubled = PeriodicColoring(
        classes=(((0,),), ((0,),)),
        window_anchors=((0,), (0,)),
        **base,
    )
    with pytest.raises(DomainError, match="twice"):
        doubled.check_partition()
    short = PeriodicColoring(classes=(((0,),),), window_anchors=((0,),), **base)
    with pytest.raises(DomainError, match="expected 2"):
        short.check_partition()
    with pytest.raises(DomainError, match="no color"):
        short.color_of((F(3, 2),))


def test_window_check_catches_a_stray_box():
    stray = PeriodicColoring(
        dim=1,
        period=F(3),
        box_size=F(1),
        classes=(((0,), (2,)), ((1,),)),
        window=F(1),
        window_anchors=((0,), (1,)),
    )
    assert stray.check_partition()
    with pytest.raises(DomainError, match="outside window"):
        stray.check_windows()


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_color_of_is_periodic(n, data):
    col = cube_tiling_coloring(n)
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    x = data.draw(st.tuples(*[coord] * n))
    shift = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    y = tuple(c + s * col.period for c, s in zip(x, shift))
    assert col.color_of(x) == col.color_of(y)


def fraction_corner(col, vec):
    return tuple(c * col.box_size for c in vec)


def fraction_owner(col):
    """The ownership table keyed by Fraction box corners; oracle for
    PeriodicColoring._owner and check_partition."""
    table = {}
    for color, vecs in enumerate(col.classes):
        for vec in vecs:
            corner = fraction_corner(col, vec)
            if corner in table:
                raise DomainError(f"box {corner} owned twice")
            table[corner] = color
    total = sum(len(vecs) for vecs in col.classes)
    if total != col.cells_per_axis**col.dim:
        raise DomainError(f"{total} owned boxes")
    return table


def fraction_check_windows(col):
    """Window containment on Fraction corners: a box fits when its corner
    lies at most window - box_size past the anchor, modulo the period.
    Oracle for PeriodicColoring.check_windows."""
    slack = col.window - col.box_size
    for vecs, anchor in zip(col.classes, col.window_anchors):
        a = fraction_corner(col, anchor)
        for vec in vecs:
            o = fraction_corner(col, vec)
            if any((x - y) % col.period > slack for x, y in zip(o, a)):
                return False
    return True


def verdict(check):
    try:
        return bool(check())
    except DomainError:
        return False


@st.composite
def small_colorings(draw):
    """Colorings with box p/q (p, q <= 4), at most 6 cells per axis, and a
    window in twelfths, so windows that are not a whole number of boxes
    come up often. Boxes land near their class's window edge, and may be
    doubled or missing."""
    box = F(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    cells = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 2))
    window = F(draw(st.integers(int(12 * box), int(12 * cells * box))), 12)
    spread = math.ceil(window / box) + 1
    cell = st.tuples(*[st.integers(0, cells - 1)] * dim)
    anchors = draw(st.lists(cell, min_size=1, max_size=4))
    classes = []
    for a in anchors:
        offsets = st.tuples(*[st.integers(0, spread)] * dim)
        vecs = draw(st.lists(offsets, min_size=1, max_size=cells**dim))
        classes.append(
            tuple(tuple((c + o) % cells for c, o in zip(a, v)) for v in vecs)
        )
    return PeriodicColoring(
        dim=dim,
        period=cells * box,
        box_size=box,
        classes=tuple(classes),
        window=window,
        window_anchors=tuple(anchors),
    )


@given(small_colorings())
@settings(max_examples=300, deadline=None)
def test_integer_checks_match_the_fraction_oracle(col):
    assert verdict(col.check_windows) == fraction_check_windows(col)
    assert verdict(col.check_partition) == verdict(lambda: fraction_owner(col))
    if verdict(col.check_partition):
        owner = fraction_owner(col)
        for vec in col._owner:
            assert col.color_of(fraction_corner(col, vec)) == owner[
                fraction_corner(col, vec)
            ]


def test_window_of_one_and_a_half_boxes_holds_one_neighbour():
    """Box 1, window 3/2: a box one cell past the anchor ends at 2 > 3/2."""
    base = dict(dim=1, period=F(3), box_size=F(1), window=F(3, 2))
    inside = PeriodicColoring(
        classes=(((0,),), ((1,),), ((2,),)), window_anchors=((0,), (1,), (2,)), **base
    )
    assert inside.check_windows() and fraction_check_windows(inside)
    stray = PeriodicColoring(
        classes=(((0,), (1,)), ((2,),)), window_anchors=((0,), (2,)), **base
    )
    assert not fraction_check_windows(stray)
    with pytest.raises(DomainError, match="outside window"):
        stray.check_windows()


# -- torus coverings and ownership -------------------------------------------


def test_covering_of_torus_covers():
    sol = random_translates_cover(CoverInstance(3, 2, 2), seed=1)
    assert is_cover(CoverInstance(3, 2, 2), sol.translates)


def loop_ownership_classes(inst, translates):
    """The cell-by-cell ownership loop: each cell of the torus goes to the
    first translate t with (c - t) % m < d on every axis. Oracle for
    _ownership_classes."""
    m, d = inst.m, inst.d
    owned = [[] for _ in translates]
    for cell in torus_points(inst):
        for idx, t in enumerate(translates):
            if all((c - a) % m < d for c, a in zip(cell, t)):
                owned[idx].append(cell)
                break
        else:
            raise DomainError(f"cell {cell} not covered by any translate")
    classes, anchors = [], []
    for t, vecs in zip(translates, owned):
        if vecs:
            classes.append(tuple(vecs))
            anchors.append(tuple(t))
    return tuple(classes), tuple(anchors)


def ownership_or_error(fn, inst, translates):
    try:
        return fn(inst, translates)
    except DomainError as exc:
        return str(exc)


@st.composite
def ownership_inputs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3 if m <= 5 else 2))
    d = draw(st.integers(1, m))
    inst = CoverInstance(m=m, d=d, n=n)
    point = st.tuples(*[st.integers(0, m - 1)] * n)
    translates = draw(st.lists(point, max_size=12))
    if draw(st.booleans()):
        translates += torus_points(inst)  # make it a cover
    return inst, translates


@given(ownership_inputs())
@settings(max_examples=150, deadline=None)
def test_ownership_matches_the_cell_by_cell_loop(args):
    assert ownership_or_error(_ownership_classes, *args) == ownership_or_error(
        loop_ownership_classes, *args
    )


@pytest.mark.parametrize(
    "m, d, n, unit", [(191, 126, 2, F(1, 64)), (3, 2, 5, F(1)), (3, 2, 3, F(1))]
)
def test_ownership_matches_the_loop_on_coloring_covers(m, d, n, unit):
    """Ownership matches the loop, and the certificate lists each owned
    cell as its corner, the cell scaled by the unit."""
    inst = CoverInstance(m=m, d=d, n=n)
    translates = random_cover_within_expectation(inst, seed=0)[0].translates
    expected = loop_ownership_classes(inst, translates)
    classes, anchors = _ownership_classes(inst, translates)
    assert (classes, anchors) == expected
    col = PeriodicColoring(
        dim=n,
        period=m * unit,
        box_size=unit,
        classes=classes,
        window=d * unit,
        window_anchors=anchors,
    )
    cert = periodic_coloring_certificate(col, B2)

    def corners(vec):
        return [format_rational(c * unit) for c in vec]

    assert cert["classes"] == [[corners(v) for v in vecs] for vecs in expected[0]]
    assert cert["anchors"] == [corners(a) for a in expected[1]]


def test_ownership_drops_fully_shadowed_translates():
    inst = CoverInstance(m=2, d=2, n=1)
    classes, anchors = _ownership_classes(inst, [(0,), (1,)])
    assert classes == (((0,), (1,)),)
    assert anchors == ((0,),)


def test_ownership_rejects_uncovered_cells():
    inst = CoverInstance(m=3, d=1, n=1)
    with pytest.raises(DomainError, match="not covered"):
        _ownership_classes(inst, [(0,)])


def test_ownership_scales_cells_by_the_unit():
    """Ownership works on cell indices; the certificate scales them by the
    box size into corner strings."""
    inst = CoverInstance(m=2, d=1, n=1)
    classes, anchors = _ownership_classes(inst, [(0,), (1,)])
    assert classes == (((0,),), ((1,),))
    assert anchors == ((0,), (1,))
    col = PeriodicColoring(
        dim=1,
        period=F(3),
        box_size=F(3, 2),
        classes=classes,
        window=F(3, 2),
        window_anchors=anchors,
    )
    cert = periodic_coloring_certificate(col, HALF_PAIR)
    assert cert["classes"] == [[["0"]], [["3/2"]]]
    assert cert["anchors"] == [["0"], ["3/2"]]


# -- avoidance colorings ------------------------------------------------------


def b2_copy_positions(x: Fraction):
    """A copy of the two-step unit baton on the line starting at x."""
    return ((x,), (x + 1,), (x + 2,))


def test_randomized_avoidance_coloring_for_the_unit_two_step():
    col = avoidance_coloring(B2, n=1, seed=3)
    assert col.period == 3 and col.window == 2 and col.box_size == 1
    assert col.check_partition() and col.check_windows()
    assert "gap >= window" not in " ".join(col.warnings)
    for numerator in range(-12, 12):
        colors = {col.color_of(p) for p in b2_copy_positions(F(numerator, 4))}
        assert len(colors) > 1


def test_randomized_mode_requires_integral_parameters():
    with pytest.raises(PreconditionError, match="integral"):
        avoidance_coloring(HALF_PAIR, n=1)
    with pytest.raises(PreconditionError, match="mode"):
        avoidance_coloring(B2, n=1, mode="exact")
    with pytest.raises(PreconditionError, match="n >= 1"):
        avoidance_coloring(B2, n=0)


def test_gap_at_least_window_warns():
    """The unit pair {0, 1} has d = l = 1, so randomized mode colors with
    window 1 and gap 1."""
    col = avoidance_coloring(B1, n=1)
    assert col.period == 2 and col.window == 1 and col.box_size == 1
    assert col.check_partition() and col.check_windows()
    assert any("cube tiling" in w for w in col.warnings)
    # the pair itself never lands monochromatically
    for numerator in range(-12, 12):
        x = F(numerator, 4)
        assert col.color_of((x,)) != col.color_of((x + 1,))


def test_asymptotic_default_margins_shrink_the_window():
    col = avoidance_coloring(B2, n=1, mode="asymptotic", seed=5)
    assert col.window == F(126, 64)
    assert col.period == F(191, 64)
    assert col.box_size == F(1, 64)
    assert col.check_partition() and col.check_windows()
    for numerator in range(-8, 8):
        colors = {col.color_of(p) for p in b2_copy_positions(F(numerator, 3))}
        assert len(colors) > 1


@given(st.integers(0, 30), st.integers(1, 2))
@settings(max_examples=20, deadline=None)
def test_randomized_avoidance_is_always_a_valid_coloring(seed, n):
    col = avoidance_coloring(B2, n=n, seed=seed)
    assert col.check_partition() and col.check_windows()
    assert col.window <= 2 and col.period - col.window >= 1


def test_avoidance_coloring_no_monochromatic_planar_copy():
    """Randomized search for monochromatic plane copies must come up empty."""
    col = avoidance_coloring(B2, n=2, seed=11)
    rng = random.Random(0)
    for _ in range(300):
        x = tuple(F(rng.randint(-24, 24), 8) for _ in range(2))
        d1 = tuple(F(rng.randint(-8, 8), 8) for _ in range(2))
        axis, sign = rng.randrange(2), rng.choice([-1, 1])
        d1 = tuple(
            F(sign) if i == axis else min(max(c, F(-1)), F(1))
            for i, c in enumerate(d1)
        )
        p0, p1 = x, tuple(a + b for a, b in zip(x, d1))
        p2 = tuple(a + 2 * b if i == axis else a for i, (a, b) in enumerate(zip(x, d1)))
        # p0,p1,p2 realize distances 1,1,2 along the chosen axis
        colors = {col.color_of(p) for p in (p0, p1, p2)}
        assert len(colors) > 1


# -- bounds --------------------------------------------------------------------


def test_pigeonhole_fixtures():
    assert pigeonhole_lower_bound(1, 3) == 8
    assert pigeonhole_lower_bound(2, 2) == 3
    assert pigeonhole_lower_bound(3, 2) == 2
    with pytest.raises(PreconditionError):
        pigeonhole_lower_bound(0, 2)


@given(st.integers(1, 6), st.integers(1, 8))
def test_pigeonhole_is_the_exact_ceiling(k, n):
    b = pigeonhole_lower_bound(k, n)
    assert (b - 1) * k**n < (k + 1) ** n <= b * k**n
    assert b >= 2


def test_u1_is_a_float_estimate():
    value = upper_bound_value(B2, n=4)
    assert value == pytest.approx(4 * math.log(4) * 1.5**4, rel=1e-12)
    assert value > 2**4  # 28.07...: the cube tiling is better here
    assert upper_bound_value(B2, n=1) == 0.0

