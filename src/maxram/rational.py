"""Exact rational helpers: parsing, formatting, and certified logarithm floors.

Rationals cross file boundaries as strings ("p/q", or "p" for integers).
Floors of r * ln(d) are certified from decimal's ln, correctly rounded at
any precision; a float floor cannot be trusted near an integer boundary.
"""

from __future__ import annotations

import math
from decimal import Context
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
    if isinstance(value, (list, dict)):
        # Named, not echoed: a container's repr can be as long as the file,
        # and a dict's follows its key order.
        raise ParseError(f"expected rational, got a {type(value).__name__}")
    raise ParseError(f"expected rational, got {value!r}")


def parse_rational(value) -> Fraction:
    """Parse an int, or a string "p" / "p/q", into a Fraction."""
    return Fraction(*parse_ratio(value))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def floor_times_log(r: Fraction, d: int) -> int:
    """Certified floor(r * ln(d)) for rational r >= 0 and integer d >= 1.

    Decimal.ln at p significant digits is correctly rounded, so ln(d)
    lies within one unit in its last place. Both ends of that bracket
    must floor to the same integer; until they do, p doubles from 30.
    Terminates because r * ln(d) is irrational for r != 0, d >= 2.
    """
    r = Fraction(r)
    if r < 0 or d < 1:
        raise ValueError("floor_times_log needs r >= 0 and d >= 1")
    if d == 1 or r == 0:
        return 0
    prec = 30
    while True:
        ln = Context(prec=prec).ln(d)
        ulp = Fraction(10) ** (ln.adjusted() + 1 - prec)
        low = math.floor(r * (Fraction(ln) - ulp))
        if low == math.floor(r * (Fraction(ln) + ulp)):
            return low
        prec *= 2
