"""Periodic box colorings and the copy-avoidance bounds built on them."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coloring_oracles import (
    check_coloring_naive,
    color_of,
    owner_table,
    periodic_coloring_certificate_naive,
)
from maxram.chromatic import pigeonhole_lower_bound
from maxram.colorings import (
    PeriodicColoring,
    _owning_translates,
    avoidance_coloring,
)
from maxram.cover import (
    CoverInstance,
    is_cover,
    random_cover_within_expectation,
    random_translates_cover,
    torus_points,
)
from maxram.errors import DomainError, PreconditionError
from maxram.io import dump_json, periodic_coloring_certificate
from maxram.metric import (
    Baton,
    FiniteMetricSpace,
    PointSet,
    connectivity_threshold,
    diameter,
)
from maxram.rational import format_rational, parse_rational
from maxram.validate import _check_coloring, validate_certificate

F = Fraction

B1 = Baton.unit(1).as_metric_space()
B2 = Baton.unit(2).as_metric_space()
HALF_PAIR = FiniteMetricSpace.from_points(PointSet(1, ((F(0),), (F(3, 2),))))
ZERO_TWO_FOUR = FiniteMetricSpace.from_points(
    PointSet(1, ((F(0),), (F(2),), (F(4),)))
)


def check_coloring(col: PeriodicColoring, classes=None) -> list[str]:
    """The validator's check of the stated classes, by default the
    coloring's own."""
    return _check_coloring(col, col.classes if classes is None else classes)


# -- PeriodicColoring --------------------------------------------------------
# The cube tiling is the avoidance coloring of the unit 1-baton.


@pytest.mark.parametrize("n", range(1, 6))
def test_the_unit_pair_coloring_is_the_cube_tiling(n):
    """One class per vertex of {0,1}^n, in lexicographic order, anchored
    at that vertex: the 2^n unit cubes of period 2."""
    vertices = tuple(itertools.product((0, 1), repeat=n))
    col = avoidance_coloring(B1, n)
    assert col.classes == tuple((v,) for v in vertices)
    assert col.window_anchors == vertices
    assert (col.period, col.box_size, col.window) == (2, 1, 1)


def test_cube_tiling_partitions_and_fits_windows():
    col = avoidance_coloring(B1, 2)
    assert col.class_count == 4
    assert col.cells_per_axis == 2
    assert check_coloring(col) == []
    assert col.warnings == (
        "gap >= window: the plain cube tiling would use no more colors",
    )


def test_cube_tiling_color_lookup():
    col = avoidance_coloring(B1, 1)
    assert color_of(col, (F(0),)) != color_of(col, (F(1),))
    assert color_of(col, (F(1, 2),)) == color_of(col, (F(0),))
    # periodicity, including negative coordinates
    assert color_of(col, (F(-2),)) == color_of(col, (F(0),))
    assert color_of(col, (F(-1, 2),)) == color_of(col, (F(3, 2),))


def test_cube_tiling_rejects_bad_dimension():
    with pytest.raises(PreconditionError):
        avoidance_coloring(B1, 0)
    with pytest.raises(PreconditionError):
        color_of(avoidance_coloring(B1, 2), (F(0),))


@given(
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cube_tiling_separates_points_at_distance_exactly_one(n, data):
    """The defining property: no two same-colored points at distance 1."""
    col = avoidance_coloring(B1, n)
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    x = data.draw(st.tuples(*[coord] * n))
    # a point at max-distance exactly 1: one axis pinned to +-1, rest free
    axis = data.draw(st.integers(0, n - 1))
    sign = data.draw(st.sampled_from([-1, 1]))
    small = st.fractions(min_value=-1, max_value=1, max_denominator=8)
    offset = list(data.draw(st.tuples(*[small] * n)))
    offset[axis] = F(sign)
    y = tuple(a + b for a, b in zip(x, offset))
    assert color_of(col, x) != color_of(col, y)


def test_coloring_validation_errors():
    one = F(1)
    good = dict(
        dim=1,
        period=F(2),
        box_size=one,
        window=one,
        window_anchors=((0,), (1,)),
    )

    def refused(classes=(((0,),), ((1,),)), **bad):
        failures = check_coloring(PeriodicColoring(**{**good, **bad}), classes)
        assert len(failures) == 1 and failures[0].startswith("coloring: ")
        return failures[0]

    assert check_coloring(PeriodicColoring(**good), (((0,),), ((1,),))) == []
    assert "dim" in refused(dim=0)
    assert "box_size" in refused(window=F(1, 2))
    assert "whole number" in refused(period=F(3, 2), window=F(3, 2))
    assert "anchor" in refused(window_anchors=((0,),))
    assert "empty" in refused(classes=(((0,),), ()))
    assert "dimension" in refused(classes=(((0,),), ((1, 0),)))
    # boxes are int box-lattice indices: any other value is refused by type
    for off in (F(1, 2), F(1), 1.0, True, "1", [1]):
        assert "must be integers" in refused(classes=(((0,),), ((off,),)))
    assert "[0, 2)" in refused(window_anchors=((0,), (2,)))
    assert "[0, 2)" in refused(window_anchors=((0,), (-1,)))


def test_partition_check_catches_double_and_missing_ownership():
    base = dict(dim=1, period=F(2), box_size=F(1), window=F(1))
    doubled = PeriodicColoring(window_anchors=((0,), (0,)), **base)
    assert check_coloring(doubled, (((0,),), ((0,),))) == [
        "classes: box (0,) owned twice"
    ]
    short = PeriodicColoring(window_anchors=((0,),), **base)
    assert check_coloring(short, (((0,),),)) == [
        "classes: 1 owned boxes, expected 2"
    ]
    # Boxes 2 and 1 are both doubled; box 2 repeats first.
    twice = PeriodicColoring(
        dim=1, period=F(4), box_size=F(1), window=F(4), window_anchors=((0,), (0,)),
    )
    assert check_coloring(twice, (((2,), (1,)), ((2,), (1,)))) == [
        "classes: box (2,) owned twice"
    ]
    with pytest.raises(DomainError, match="no color"):
        color_of(short, (F(3, 2),), (((0,),),))


def test_window_check_catches_a_stray_box():
    stray = PeriodicColoring(
        dim=1,
        period=F(3),
        box_size=F(1),
        window=F(1),
        window_anchors=((0,), (1,)),
    )
    assert check_coloring(stray, (((0,), (2,)), ((1,),))) == [
        "anchors: class 0: box (2,) outside window at (0,)"
    ]


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_color_of_is_periodic(n, data):
    col = avoidance_coloring(B1, n)
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    x = data.draw(st.tuples(*[coord] * n))
    shift = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    y = tuple(c + s * col.period for c, s in zip(x, shift))
    assert color_of(col, x) == color_of(col, y)


def fraction_corner(col, vec):
    return tuple(c * col.box_size for c in vec)


def fraction_owner(col, classes):
    """The ownership table keyed by Fraction box corners; oracle for the
    classes: check of _check_coloring and for owner_table."""
    table = {}
    for color, vecs in enumerate(classes):
        for vec in vecs:
            corner = fraction_corner(col, vec)
            if corner in table:
                raise DomainError(f"box {corner} owned twice")
            table[corner] = color
    total = sum(len(vecs) for vecs in classes)
    if total != col.cells_per_axis**col.dim:
        raise DomainError(f"{total} owned boxes")
    return table


def fraction_check_windows(col, classes):
    """Window containment on Fraction corners: a box fits when its corner
    lies at most window - box_size past the anchor, modulo the period.
    Oracle for the anchors: check of _check_coloring."""
    slack = col.window - col.box_size
    for vecs, anchor in zip(classes, col.window_anchors):
        a = fraction_corner(col, anchor)
        for vec in vecs:
            o = fraction_corner(col, vec)
            if any((x - y) % col.period > slack for x, y in zip(o, a)):
                return False
    return True


@st.composite
def small_colorings(draw):
    """Colorings with box p/q (p, q <= 4), at most 6 cells per axis, and a
    window in twelfths, so windows that are not a whole number of boxes
    come up often. Boxes land near their class's window edge, and may be
    doubled or missing. Drawn as (coloring, stated classes)."""
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
    coloring = PeriodicColoring(
        dim=dim,
        period=cells * box,
        box_size=box,
        window=window,
        window_anchors=tuple(anchors),
    )
    return coloring, tuple(classes)


@given(small_colorings())
@settings(max_examples=300, deadline=None)
def test_integer_checks_match_the_fraction_oracle(stated):
    col, classes = stated
    failures = check_coloring(col, classes)
    assert failures == check_coloring_naive(col, classes)
    labels = {failure.split(":")[0] for failure in failures}
    assert labels <= {"classes", "anchors"}
    assert ("anchors" not in labels) == fraction_check_windows(col, classes)
    try:
        owner = fraction_owner(col, classes)
    except DomainError:
        owner = None
    assert ("classes" not in labels) == (owner is not None)
    if owner is not None:
        for vec in owner_table(classes):
            corner = fraction_corner(col, vec)
            assert color_of(col, corner, classes) == owner[corner]


def test_window_of_one_and_a_half_boxes_holds_one_neighbour():
    """Box 1, window 3/2: a box one cell past the anchor ends at 2 > 3/2."""
    base = dict(dim=1, period=F(3), box_size=F(1), window=F(3, 2))
    inside = PeriodicColoring(window_anchors=((0,), (1,), (2,)), **base)
    singles = (((0,),), ((1,),), ((2,),))
    assert check_coloring(inside, singles) == []
    assert fraction_check_windows(inside, singles)
    stray = PeriodicColoring(window_anchors=((0,), (2,)), **base)
    pair = (((0,), (1,)), ((2,),))
    assert not fraction_check_windows(stray, pair)
    assert check_coloring(stray, pair) == [
        "anchors: class 0: box (1,) outside window at (0,)"
    ]


# -- torus coverings and ownership -------------------------------------------


def test_covering_of_torus_covers():
    sol = random_translates_cover(CoverInstance(3, 2, 2), seed=1)
    assert is_cover(CoverInstance(3, 2, 2), sol.translates)


def loop_ownership_classes(inst, translates):
    """The cell-by-cell ownership loop: each cell of the torus goes to the
    first translate t with (c - t) % m < d on every axis. Oracle for
    _owning_translates and the classes derived from its translates."""
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


def owned_coloring(inst, translates, unit=F(1)) -> PeriodicColoring:
    """The coloring owned by the translates that own a cell of the torus,
    each cell a box of side unit."""
    return PeriodicColoring(
        dim=inst.n,
        period=inst.m * unit,
        box_size=unit,
        window=inst.d * unit,
        window_anchors=_owning_translates(inst, translates),
    )


def derived_ownership(inst, translates):
    col = owned_coloring(inst, translates)
    return col.classes, col.window_anchors


def ownership_or_error(fn, inst, translates):
    try:
        return fn(inst, translates)
    except DomainError as exc:
        return str(exc)


@st.composite
def ownership_inputs(draw, max_m=6):
    m = draw(st.integers(1, max_m))
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
    assert ownership_or_error(derived_ownership, *args) == ownership_or_error(
        loop_ownership_classes, *args
    )


@pytest.mark.parametrize(
    "m, d, n, unit", [(191, 126, 2, F(1, 64)), (3, 2, 5, F(1)), (3, 2, 3, F(1))]
)
def test_ownership_matches_the_loop_on_coloring_covers(m, d, n, unit):
    """Ownership matches the loop, and the certificate lists each owned
    cell as its index vector, at any unit."""
    inst = CoverInstance(m=m, d=d, n=n)
    translates = random_cover_within_expectation(inst, seed=0)[0].translates
    expected = loop_ownership_classes(inst, translates)
    col = owned_coloring(inst, translates, unit)
    assert (col.classes, col.window_anchors) == expected
    cert = periodic_coloring_certificate(col, B2)
    assert cert["classes"] == [[list(v) for v in vecs] for vecs in expected[0]]
    assert cert["anchors"] == [list(a) for a in expected[1]]


def test_ownership_drops_fully_shadowed_translates():
    inst = CoverInstance(m=2, d=2, n=1)
    assert _owning_translates(inst, [(0,), (1,)]) == ((0,),)
    assert owned_coloring(inst, [(0,), (1,)]).classes == (((0,), (1,)),)


def test_ownership_rejects_uncovered_cells():
    inst = CoverInstance(m=3, d=1, n=1)
    with pytest.raises(DomainError, match=r"cell \(1,\) not covered"):
        _owning_translates(inst, [(0,)])


def test_ownership_scales_cells_by_the_unit():
    """Ownership works on cell indices, and the unit scales only the
    period, window and box size: the certificate lists the indices."""
    col = owned_coloring(CoverInstance(m=2, d=1, n=1), [(0,), (1,)], F(3, 2))
    assert col.classes == (((0,),), ((1,),))
    assert col.window_anchors == ((0,), (1,))
    assert (col.period, col.window) == (3, F(3, 2))
    cert = periodic_coloring_certificate(col, HALF_PAIR)
    assert cert["classes"] == [[[0]], [[1]]]
    assert cert["anchors"] == [[0], [1]]
    assert cert["box_size"] == "3/2"


def assert_written_as_the_per_box_writer(col, space) -> None:
    """The certificate matches, byte for byte, the per-box writer over the
    classes the cell-by-cell loop gives the coloring's anchors."""
    classes, anchors = loop_ownership_classes(col.torus, col.window_anchors)
    assert anchors == col.window_anchors
    assert dump_json(periodic_coloring_certificate(col, space)) == dump_json(
        periodic_coloring_certificate_naive(col, classes, space)
    )


@given(
    ownership_inputs(max_m=8),
    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
    st.sampled_from([B1, B2, HALF_PAIR]),
)
@example((CoverInstance(3, 3, 2), [(1, 2), (0, 0)]), F(1), B2)  # d = m
@example((CoverInstance(8, 5, 3), [(7, 7, 7), (6, 6, 6)]), F(1, 3), B1)
@settings(max_examples=100, deadline=None)
def test_writer_matches_the_per_box_writer_on_small_tori(args, unit, space):
    """Any covering translates of a torus with m <= 8 and n <= 3, shadowed
    ones among them, at any box side."""
    inst, translates = args
    translates = translates + translates[:1] + torus_points(inst)  # shadowed
    col = owned_coloring(inst, translates, unit)
    assert_written_as_the_per_box_writer(col, space)


def corner_certificate(cert: dict, corner) -> dict:
    """cert with each box and anchor index i written as corner(i * box_size),
    the form certificates took before they listed indices."""
    box = parse_rational(cert["box_size"])

    def corners(vec):
        return [corner(i * box) for i in vec]

    return {
        **cert,
        "classes": [[corners(v) for v in vecs] for vecs in cert["classes"]],
        "anchors": [corners(a) for a in cert["anchors"]],
    }


def json_number(q: Fraction):
    return q.numerator if q.denominator == 1 else float(q)


@pytest.mark.parametrize(
    "space, asymptotic, box, cells",
    [(ZERO_TWO_FOUR, False, F(2), 3), (B2, True, F(1, 64), 191)],
    ids=["0-2-4", "unit2-asymptotic"],
)
def test_certificates_list_box_indices_where_they_differ_from_corners(
    space, asymptotic, box, cells
):
    """Box i is cornered at i * box_size. At box side 2 (the points 0, 2, 4
    color Z_3) and 1/64 (the asymptotic unit 2-baton colors Z_191), the
    certificate lists i, not the corner; the same certificate with its
    corners, as "p/q" strings or as JSON numbers, reads invalid."""
    col = avoidance_coloring(space, n=1, asymptotic=asymptotic)
    assert (col.box_size, col.cells_per_axis) == (box, cells)
    cert = periodic_coloring_certificate(col, space)
    assert sorted(v for vecs in cert["classes"] for [v] in vecs) == list(range(cells))
    assert cert["classes"] == [[list(v) for v in vecs] for vecs in col.classes]
    assert cert["anchors"] == [list(a) for a in col.window_anchors]
    assert validate_certificate(cert).ok
    for corner in (format_rational, json_number):
        report = validate_certificate(corner_certificate(cert, corner))
        assert not report.ok
        assert any(f.startswith("coloring: ") for f in report.failures), report


# -- avoidance colorings ------------------------------------------------------


def b2_copy_positions(x: Fraction):
    """A copy of the two-step unit baton on the line starting at x."""
    return ((x,), (x + 1,), (x + 2,))


def test_randomized_avoidance_coloring_for_the_unit_two_step():
    col = avoidance_coloring(B2, n=1, seed=3)
    assert col.period == 3 and col.window == 2 and col.box_size == 1
    assert check_coloring(col) == []
    assert "gap >= window" not in " ".join(col.warnings)
    for numerator in range(-12, 12):
        colors = {color_of(col, p) for p in b2_copy_positions(F(numerator, 4))}
        assert len(colors) > 1


def test_randomized_mode_requires_integral_parameters():
    """Rational parameters color (see the lowest-terms tests below); the
    dimension must be positive."""
    with pytest.raises(PreconditionError, match="n >= 1"):
        avoidance_coloring(B2, n=0)


def test_gap_at_least_window_warns():
    """The unit pair {0, 1} has d = l = 1, so randomized mode colors with
    window 1 and gap 1."""
    col = avoidance_coloring(B1, n=1)
    assert col.period == 2 and col.window == 1 and col.box_size == 1
    assert check_coloring(col) == []
    assert any("cube tiling" in w for w in col.warnings)
    # the pair itself never lands monochromatically
    for numerator in range(-12, 12):
        x = F(numerator, 4)
        assert color_of(col, (x,)) != color_of(col, (x + 1,))


def test_asymptotic_default_margins_shrink_the_window():
    col = avoidance_coloring(B2, n=1, asymptotic=True, seed=5)
    assert col.window == F(126, 64)
    assert col.period == F(191, 64)
    assert col.box_size == F(1, 64)
    assert check_coloring(col) == []
    for numerator in range(-8, 8):
        colors = {color_of(col, p) for p in b2_copy_positions(F(numerator, 3))}
        assert len(colors) > 1


def test_a_common_factor_of_window_and_gap_becomes_the_box_size():
    """The points 0, 2, 4 have d = 4 and l = 2: the ratio 2/3 colors the
    torus Z_3 at box side 2, not Z_6 at box side 1."""
    col = avoidance_coloring(ZERO_TWO_FOUR, n=2)
    assert col.period == 6 and col.box_size == 2 and col.window == 4
    assert col.cells_per_axis == 3
    assert check_coloring(col) == []


HALVES = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]


@given(st.data(), st.integers(1, 2), st.integers(1, 2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_one_recipe_colors_rational_spaces_in_lowest_terms(data, dim, n, asymptotic):
    """Any space on the half-integer coordinates colors in both modes, on
    the torus of window/(window + gap) in lowest terms."""
    grid = list(itertools.product(HALVES, repeat=dim))
    points = data.draw(
        st.lists(st.sampled_from(grid), min_size=2, max_size=4, unique=True)
    )
    space = FiniteMetricSpace.from_points(PointSet(dim, tuple(points)))
    window, gap = diameter(space), connectivity_threshold(space)
    if asymptotic:
        window, gap = window * F(63, 64), gap * F(65, 64)
    assume((window / (window + gap)).denominator ** n <= 4096)
    col = avoidance_coloring(space, n=n, asymptotic=asymptotic)
    a, b = col.window / col.box_size, col.cells_per_axis
    assert a.denominator == 1 and math.gcd(a.numerator, b) == 1
    assert col.box_size * b == col.period
    assert validate_certificate(periodic_coloring_certificate(col, space)).ok


@given(st.data(), st.integers(1, 2), st.integers(1, 2), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_writer_matches_the_per_box_writer_on_avoidance_colorings(
    data, dim, n, asymptotic, integral
):
    """Integral and half-integer spaces, in both modes."""
    coords = [F(c) for c in range(4)] if integral else HALVES
    grid = list(itertools.product(coords, repeat=dim))
    points = data.draw(
        st.lists(st.sampled_from(grid), min_size=2, max_size=4, unique=True)
    )
    space = FiniteMetricSpace.from_points(PointSet(dim, tuple(points)))
    window, gap = diameter(space), connectivity_threshold(space)
    if asymptotic:
        window, gap = window * F(63, 64), gap * F(65, 64)
    assume((window / (window + gap)).denominator ** n <= 4096)
    col = avoidance_coloring(space, n=n, asymptotic=asymptotic)
    assert_written_as_the_per_box_writer(col, space)


@given(st.integers(0, 30), st.integers(1, 2))
@settings(max_examples=20, deadline=None)
def test_randomized_avoidance_is_always_a_valid_coloring(seed, n):
    col = avoidance_coloring(B2, n=n, seed=seed)
    assert check_coloring(col) == []
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
        colors = {color_of(col, p) for p in (p0, p1, p2)}
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
