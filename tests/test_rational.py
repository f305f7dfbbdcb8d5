"""Rational parsing and formatting, and certified logarithm floors."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxram.errors import ParseError
from maxram.rational import (
    ceil_div,
    floor_times_log,
    format_rational,
    log_bounds,
    parse_ratio,
    parse_rational,
)

F = Fraction


def series_log_bounds(d: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Oracle for log_bounds: ln(d) = 2*atanh((d-1)/(d+1)) with no range
    reduction. Correct for every d, but it needs about d/4 terms per
    factor e of precision, so it is only usable for small d."""
    if d == 1:
        return F(0), F(0)
    x = F(d - 1, d + 1)
    x2 = x * x
    term = x
    total = F(0)
    j = 0
    while True:
        total += term / (2 * j + 1)
        tail = 2 * term * x2 / ((2 * j + 3) * (1 - x2))
        if tail < eps:
            lo = 2 * total
            return lo, lo + tail
        term *= x2
        j += 1


def series_floor_times_log(r: Fraction, d: int) -> int:
    """floor(r * ln(d)) as floor_times_log finds it, from the oracle."""
    if d == 1 or r == 0:
        return 0
    eps = F(1, 10**12)
    while True:
        lo, hi = series_log_bounds(d, eps)
        if math.floor(r * lo) == math.floor(r * hi):
            return math.floor(r * lo)
        eps /= 2**10


def decimal_log(d: int) -> Fraction:
    """ln(d) to 60 significant digits; Decimal.ln rounds correctly."""
    with localcontext() as ctx:
        ctx.prec = 60
        return F(Decimal(d).ln())


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(7) == 7
    assert parse_rational("-3") == -3
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-10/4") == F(-5, 2)
    assert parse_ratio(7) == (7, 1)
    assert parse_ratio("-3") == (-3, 1)
    assert parse_ratio("-10/4") == (-10, 4)  # unreduced
    assert parse_ratio("1/-2") == (1, -2)


@pytest.mark.parametrize("bad", [True, 1.5, None, "a/b", "1/0", "1/2/3", ""])
def test_parse_rational_rejects_everything_else(bad):
    """Both parsers refuse with one message."""
    with pytest.raises(ParseError) as pair:
        parse_ratio(bad)
    with pytest.raises(ParseError) as fraction:
        parse_rational(bad)
    assert str(pair.value) == str(fraction.value)


def test_format_rational_matches_the_wire_format():
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-3, 2)) == "-3/2"
    assert format_rational(F(0)) == "0"


@given(st.fractions(max_denominator=10**6))
def test_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_ceil_div():
    assert ceil_div(9, 4) == 3
    assert ceil_div(8, 4) == 2
    assert ceil_div(1, 5) == 1
    assert ceil_div(-3, 2) == -1


@pytest.mark.parametrize("d", [1, 2, 3, 10, 126])
def test_log_bounds_bracket_the_float_log(d):
    eps = F(1, 10**9)
    lo, hi = log_bounds(d, eps)
    assert hi - lo < eps
    assert float(lo) <= math.log(d) + 1e-12
    assert math.log(d) - 1e-12 <= float(hi)


@given(
    st.integers(2, 130),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000),
)
@settings(max_examples=60, deadline=None)
def test_log_bounds_agree_with_the_unreduced_series(d, r):
    eps = F(1, 10**12)
    lo, hi = log_bounds(d, eps)
    slo, shi = series_log_bounds(d, eps)
    assert lo <= shi and slo <= hi  # both brackets hold ln(d)
    assert floor_times_log(r, d) == series_floor_times_log(r, d)


@given(
    st.integers(2, 10**4),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000),
)
@settings(max_examples=300, deadline=None)
def test_log_bounds_hold_the_log_for_d_up_to_ten_thousand(d, r):
    eps = F(1, 10**12)
    lo, hi = log_bounds(d, eps)
    assert hi - lo < eps
    ln_d, slack = decimal_log(d), F(1, 10**50)
    assert lo <= ln_d + slack
    assert ln_d - slack <= hi
    exact = r * ln_d
    if min(exact - math.floor(exact), math.ceil(exact) - exact) > F(1, 10**40):
        assert floor_times_log(r, d) == math.floor(exact)


def test_log_bounds_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_bounds(0, F(1, 10))


def test_floor_times_log_fixtures():
    assert floor_times_log(F(1), 2) == 0
    assert floor_times_log(F(3), 2) == 2  # 3 ln 2 = 2.079
    assert floor_times_log(F(10), 3) == 10  # 10 ln 3 = 10.986
    assert floor_times_log(F(0), 5) == 0
    assert floor_times_log(F(7), 1) == 0
    with pytest.raises(ValueError):
        floor_times_log(F(-1), 2)


@given(
    st.fractions(min_value=0, max_value=50, max_denominator=16),
    st.integers(1, 50),
)
def test_floor_times_log_agrees_with_floats_away_from_boundaries(r, d):
    """Floats are only trustworthy when clearly inside an integer gap, so
    compare there and merely sandwich otherwise."""
    exact = floor_times_log(r, d)
    approx = float(r) * math.log(d)
    assert exact <= approx + 1e-9
    assert approx - 1e-9 <= exact + 1
    if min(approx - math.floor(approx), math.ceil(approx) - approx) > 1e-6:
        assert exact == math.floor(approx)
