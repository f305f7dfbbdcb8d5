"""Exact rational helpers: parsing, formatting, and certified logarithm floors.

Rationals cross file boundaries as strings ("p/q", or "p" for integers).
Floors of expressions r * ln(d) are certified with rational bounds on the
logarithm; a float floor cannot be trusted near an integer boundary.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def parse_ratio(value) -> tuple[int, int]:
    """Parse an int, or a string "p" / "p/q", into the integer pair (p, q),
    unreduced, with q != 0."""
    if isinstance(value, bool):
        raise ParseError(f"expected rational, got bool {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) <= 2:
            try:
                num = int(parts[0])
                den = int(parts[1]) if len(parts) == 2 else 1
            except ValueError as exc:
                raise ParseError(f"bad rational literal {value!r}: {exc}") from exc
            if den == 0:
                raise ParseError(f"bad rational literal {value!r}: Fraction({num}, 0)")
            return num, den
    raise ParseError(f"expected rational, got {value!r}")


def parse_rational(value) -> Fraction:
    """Parse an int, or a string "p" / "p/q", into a Fraction."""
    return Fraction(*parse_ratio(value))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _log_ratio_bounds(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) around ln((1+x)/(1-x)) = 2*atanh(x), 0 <= x < 1,
    with hi - lo < eps.

    Partial sums of the series are lower bounds and the geometric tail
    bounds the remainder; each term shrinks by a factor of x^2.
    """
    x2 = x * x
    term = x
    total = Fraction(0)
    j = 0
    while True:
        total += term / (2 * j + 1)
        # tail: 2 * sum_{i>j} x^(2i+1)/(2i+1) < 2 * x^(2j+3) / ((2j+3)(1-x^2))
        tail = 2 * term * x2 / ((2 * j + 3) * (1 - x2))
        if tail < eps:
            lo = 2 * total
            return lo, lo + tail
        term *= x2
        j += 1


def log_bounds(d: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo <= ln(d) <= hi and hi - lo < eps.

    Range-reduced: ln(d) = k*ln(2) + ln(d / 2^k) with 2^k <= d < 2^(k+1).
    ln(2) is 2*atanh(1/3) and ln(d / 2^k) is 2*atanh(x) with
    x = (d - 2^k)/(d + 2^k) < 1/3, so both series converge by a factor of
    at least 9 per term whatever d is. Each part gets half of eps.
    """
    if d < 1:
        raise ValueError("log_bounds needs d >= 1")
    k = d.bit_length() - 1
    lo, hi = _log_ratio_bounds(Fraction(d - 2**k, d + 2**k), eps / 2)
    if k:
        lo2, hi2 = _log_ratio_bounds(Fraction(1, 3), eps / (2 * k))
        lo, hi = lo + k * lo2, hi + k * hi2
    return lo, hi


def floor_times_log(r: Fraction, d: int) -> int:
    """Certified floor(r * ln(d)) for rational r >= 0 and integer d >= 1.

    Tightens the log interval until both endpoints floor to the same
    integer. Terminates because r * ln(d) is irrational for r != 0, d >= 2.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("floor_times_log needs r >= 0")
    if d == 1 or r == 0:
        return 0
    eps = Fraction(1, 10**12)
    while True:
        lo, hi = log_bounds(d, eps)
        flo = (r * lo).numerator // (r * lo).denominator
        fhi = (r * hi).numerator // (r * hi).denominator
        if flo == fhi:
            return flo
        eps /= 2**10


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)
