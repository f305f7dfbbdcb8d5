"""Periodic box colorings and the copy-avoidance bounds built on them."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxram import (
    Baton,
    CoverInstance,
    DomainError,
    FiniteMetricSpace,
    PeriodicColoring,
    PointSet,
    PreconditionError,
    avoidance_coloring,
    cube_tiling_coloring,
    is_cover,
    pigeonhole_lower_bound,
    random_cover_within_expectation,
    random_translates_cover,
    super_ramsey_params,
    upper_bound_value,
)
from maxram.colorings import _ownership_classes
from maxram.cover import torus_points

F = Fraction

UNIT_PAIR = Baton.unit(1).as_metric_space()
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
        classes=(((F(0),),), ((F(1),),)),
        window=one,
        window_anchors=((F(0),), (F(1),)),
    )
    PeriodicColoring(**good)
    with pytest.raises(PreconditionError, match="dim"):
        PeriodicColoring(**{**good, "dim": 0})
    with pytest.raises(PreconditionError, match="box_size"):
        PeriodicColoring(**{**good, "window": F(1, 2)})
    with pytest.raises(PreconditionError, match="whole number"):
        PeriodicColoring(**{**good, "period": F(3, 2), "window": F(3, 2)})
    with pytest.raises(PreconditionError, match="anchor"):
        PeriodicColoring(**{**good, "window_anchors": ((F(0),),)})
    with pytest.raises(PreconditionError, match="empty"):
        PeriodicColoring(**{**good, "classes": (((F(0),),), ())})
    with pytest.raises(PreconditionError, match="lattice"):
        PeriodicColoring(**{**good, "classes": (((F(0),),), ((F(1, 2),),))})
    with pytest.raises(PreconditionError, match="period"):
        PeriodicColoring(**{**good, "window_anchors": ((F(0),), (F(2),))})


def test_partition_check_catches_double_and_missing_ownership():
    base = dict(dim=1, period=F(2), box_size=F(1), window=F(1))
    doubled = PeriodicColoring(
        classes=(((F(0),),), ((F(0),),)),
        window_anchors=((F(0),), (F(0),)),
        **base,
    )
    with pytest.raises(DomainError, match="twice"):
        doubled.check_partition()
    short = PeriodicColoring(
        classes=(((F(0),),),), window_anchors=((F(0),),), **base
    )
    with pytest.raises(DomainError, match="expected 2"):
        short.check_partition()
    with pytest.raises(DomainError, match="no color"):
        short.color_of((F(3, 2),))


def test_window_check_catches_a_stray_box():
    stray = PeriodicColoring(
        dim=1,
        period=F(3),
        box_size=F(1),
        classes=(((F(0),), (F(2),)), ((F(1),),)),
        window=F(1),
        window_anchors=((F(0),), (F(1),)),
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


# -- torus coverings and ownership -------------------------------------------


def test_covering_of_torus_covers():
    sol = random_translates_cover(CoverInstance(3, 2, 2), seed=1)
    assert is_cover(CoverInstance(3, 2, 2), sol.translates)


def loop_ownership_classes(inst, translates, unit):
    """The cell-by-cell ownership loop: each cell of the torus goes to the
    first translate t with (c - t) % m < d on every axis. Oracle for
    _ownership_classes."""
    m, d = inst.m, inst.d
    owned = [[] for _ in translates]
    for cell in torus_points(inst):
        for idx, t in enumerate(translates):
            if all((c - a) % m < d for c, a in zip(cell, t)):
                owned[idx].append(tuple(F(c) * unit for c in cell))
                break
        else:
            raise DomainError(f"cell {cell} not covered by any translate")
    classes, anchors = [], []
    for t, vecs in zip(translates, owned):
        if vecs:
            classes.append(tuple(vecs))
            anchors.append(tuple(F(c) * unit for c in t))
    return tuple(classes), tuple(anchors)


def ownership_or_error(fn, inst, translates, unit):
    try:
        return fn(inst, translates, unit)
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
    unit = draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))
    return inst, translates, unit


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
    inst = CoverInstance(m=m, d=d, n=n)
    translates = random_cover_within_expectation(inst, seed=0)[0].translates
    expected = loop_ownership_classes(inst, translates, unit)
    assert _ownership_classes(inst, translates, unit) == expected


def test_ownership_drops_fully_shadowed_translates():
    inst = CoverInstance(m=2, d=2, n=1)
    classes, anchors = _ownership_classes(inst, [(0,), (1,)], F(1))
    assert classes == (((F(0),), (F(1),)),)
    assert anchors == ((F(0),),)


def test_ownership_rejects_uncovered_cells():
    inst = CoverInstance(m=3, d=1, n=1)
    with pytest.raises(DomainError, match="not covered"):
        _ownership_classes(inst, [(0,)], F(1))


def test_ownership_scales_cells_by_the_unit():
    inst = CoverInstance(m=2, d=1, n=1)
    classes, anchors = _ownership_classes(inst, [(0,), (1,)], F(3, 2))
    assert classes == (((F(0),),), ((F(3, 2),),))
    assert anchors == ((F(0),), (F(3, 2),))


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
    with pytest.raises(PreconditionError, match="asymptotic"):
        avoidance_coloring(B2, n=1, d_prime=F(1))
    with pytest.raises(PreconditionError, match="mode"):
        avoidance_coloring(B2, n=1, mode="exact")
    with pytest.raises(PreconditionError, match="n >= 1"):
        avoidance_coloring(B2, n=0)


def test_asymptotic_mode_with_explicit_window_and_gap():
    col = avoidance_coloring(
        HALF_PAIR, n=1, mode="asymptotic", d_prime=F(3, 2), l_prime=F(3, 2)
    )
    assert col.period == 3 and col.box_size == F(3, 2)
    assert col.check_partition() and col.check_windows()
    assert any("cube tiling" in w for w in col.warnings)
    # the pair itself never lands monochromatically
    for numerator in range(-12, 12):
        x = F(numerator, 4)
        assert col.color_of((x,)) != col.color_of((x + F(3, 2),))


def test_asymptotic_default_margins_shrink_the_window():
    col = avoidance_coloring(B2, n=1, mode="asymptotic", seed=5)
    assert col.window == F(126, 64)
    assert col.period == F(191, 64)
    assert col.box_size == F(1, 64)
    assert col.check_partition() and col.check_windows()
    for numerator in range(-8, 8):
        colors = {col.color_of(p) for p in b2_copy_positions(F(numerator, 3))}
        assert len(colors) > 1


def test_asymptotic_mode_rejects_bad_overrides():
    with pytest.raises(PreconditionError, match="d_prime"):
        avoidance_coloring(B2, n=1, mode="asymptotic", d_prime=F(5, 2))
    with pytest.raises(PreconditionError, match="d_prime"):
        avoidance_coloring(B2, n=1, mode="asymptotic", d_prime=F(0))
    with pytest.raises(PreconditionError, match="l_prime"):
        avoidance_coloring(B2, n=1, mode="asymptotic", l_prime=F(1, 2))


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


def test_u2_builds_the_covering_coloring():
    bound = upper_bound_value(B2, n=2, variant="U2")
    assert bound.variant == "U2"
    assert bound.value == 4
    assert not bound.asymptotic_only
    assert not bound.trivial_bound_better
    assert bound.details == {"window": 2, "gap": 1, "period": 3}


def test_u2_preconditions():
    with pytest.raises(PreconditionError, match="threshold <"):
        upper_bound_value(UNIT_PAIR, n=2, variant="U2")
    with pytest.raises(PreconditionError, match="integral"):
        upper_bound_value(HALF_PAIR, n=2, variant="U2")
    with pytest.raises(PreconditionError, match="variant"):
        upper_bound_value(B2, n=2, variant="U3")


def test_u1_is_a_float_estimate():
    bound = upper_bound_value(B2, n=4, variant="u1")
    assert bound.asymptotic_only
    assert bound.value == pytest.approx(4 * math.log(4) * 1.5**4, rel=1e-12)
    assert bound.trivial_bound_better  # 28.07... > 16
    small = upper_bound_value(B2, n=1, variant="U1")
    assert small.value == 0.0 and not small.trivial_bound_better


# -- growth parameters ----------------------------------------------------------


def test_super_ramsey_params_integer_and_faithful():
    quick = super_ramsey_params(Baton((F(2), F(3))))
    assert (quick.F, quick.m, quick.chi) == (6, 5, F(6, 5))
    full = super_ramsey_params(Baton((F(1), F(3, 2))), faithful=True)
    assert (full.F, full.m, full.chi) == (71, 70, F(71, 70))
    assert full.chi > 1
