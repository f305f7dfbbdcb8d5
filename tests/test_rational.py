"""Rational parsing and formatting, and certified logarithm floors."""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxram.errors import ParseError
from maxram.rational import floor_times_log, format_rational, parse_ratio
from maxram.rational import parse_rational

F = Fraction


def series_log_bounds(d: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) around ln(d), hi - lo < eps, from the series
    ln(d) = 2*atanh((d-1)/(d+1)) with no range reduction: an oracle that
    shares nothing with decimal. Correct for every d, but it needs about
    d/4 terms per factor e of precision, so it is only usable for small d."""
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
    """floor(r * ln(d)) from the series oracle, tightened until both ends
    of its bracket floor alike."""
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


@given(
    st.integers(2, 130),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000),
)
@settings(max_examples=60, deadline=None)
def test_log_bounds_agree_with_the_unreduced_series(d, r):
    """floor_times_log, from decimal's ln, agrees with the atanh series."""
    assert floor_times_log(r, d) == series_floor_times_log(r, d)


@given(
    st.integers(2, 10**4),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000),
)
@settings(max_examples=300, deadline=None)
def test_log_bounds_hold_the_log_for_d_up_to_ten_thousand(d, r):
    """floor_times_log agrees with a 60-digit ln away from integers."""
    exact = r * decimal_log(d)
    if min(exact - math.floor(exact), math.ceil(exact) - exact) > F(1, 10**40):
        assert floor_times_log(r, d) == math.floor(exact)


def test_floor_times_log_fixtures():
    assert floor_times_log(F(1), 2) == 0
    assert floor_times_log(F(3), 2) == 2  # 3 ln 2 = 2.079
    assert floor_times_log(F(10), 3) == 10  # 10 ln 3 = 10.986
    assert floor_times_log(F(0), 5) == 0
    assert floor_times_log(F(7), 1) == 0
    with pytest.raises(ValueError):
        floor_times_log(F(-1), 2)
    with pytest.raises(ValueError):
        floor_times_log(F(1), 0)


def convergents(x: Fraction):
    """The continued-fraction convergents of x > 0, in order."""
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a = math.floor(x)
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        yield F(h, k)
        if x == a:
            return
        x = 1 / (x - a)


@pytest.mark.parametrize("d", [2, 3, 126])
def test_floor_times_log_doubles_its_digits_next_to_an_integer(d):
    """r from the convergents of j/ln d, denominators up to 10^45, puts
    r * ln(d) within about 10^-90 of the integer j: 30 digits of ln(d)
    cannot tell which side it lies on. A 200-digit ln is the oracle."""
    ln_d = F(Context(prec=200).ln(d))
    nearest = 1
    for j in (1, 7, 1000):
        for r in convergents(j / ln_d):
            if r.denominator > 10**45:
                break
            if r == 0:
                continue
            exact = r * ln_d
            gap = abs(exact - round(exact))
            assert gap > F(1, 10**150)  # well past the oracle's own error
            nearest = min(nearest, gap)
            assert floor_times_log(r, d) == math.floor(exact), (j, r)
    assert nearest < F(1, 10**80)


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
